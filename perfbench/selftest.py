"""Smoke test of the benchmark itself, at a tiny size:

    python3 perfbench/selftest.py

Runs every workload in both modes and checks that each metric named in
``BENCHMARK.json`` is emitted with its unit and that no pass failed; that the
wrappers of a traced or counted run put back every original function; that
the counted run's counts repeat exactly; and that the clusters generator is
deterministic in its seed.  Exits non-zero on the first failure.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from run import prepare  # noqa: E402

prepare()

import numpy as np  # noqa: E402

import bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = {"streams": 1, "length": 1000, "setup_starts": 1}


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def tiny_run(workload: str, trace: bool, seed: int = 3) -> dict:
    result, _ = bench.run_workload(workload, seed, 0.1, trace, **TINY)
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
           f"{workload} trace={trace}: {result}")
    return result


def test_every_metric_emitted_with_its_unit():
    for trace in (False, True):
        specs = {spec["name"]: spec["unit"] for spec in bench.metric_specs(trace)}
        for workload in workloads.BUILDERS:
            metrics = tiny_run(workload, trace)["metrics"]
            expect(metrics.keys() == specs.keys(),
                   f"{workload} trace={trace}: metric names differ from BENCHMARK.json")
            for name, unit in specs.items():
                expect(metrics[name]["unit"] == unit, f"{name}: unit {metrics[name]['unit']}")
                expect(isinstance(metrics[name]["value"], (int, float)), f"{name}: not a number")


def test_wrappers_restore_originals():
    originals = {(owner, attr): spans._original(owner, attr) for owner, attr, _ in spans.TARGETS}
    learner = spans.stream.StreamLearner
    tracer = spans.Tracer()
    with tracer.installed():
        expect(all(spans._original(*key) is not fn for key, fn in originals.items()),
               "a target was not wrapped")
    with spans.CallCounter(spans.Tracer()).installed():
        pass
    with spans.sample_timer([]), spans.batch_probe([], lambda: 0):
        expect(spans._original(learner, "train_on_sample")
               is not originals[(learner, "train_on_sample")], "timer not installed")
        expect(spans._original(learner, "predict")
               is not originals[(learner, "predict")], "speed probe not installed")
    tiny_run("sea-sporadic", False)
    tiny_run("sea-sporadic", True)
    for key, fn in originals.items():
        expect(spans._original(*key) is fn, f"{key[1]} was not restored")
    expect(sys.getprofile() is None, "profiler left installed")


def test_counts_repeat_exactly():
    first, second = (tiny_run("clusters-sporadic", True)["metrics"] for _ in range(2))
    for name, entry in first.items():
        if "calls" in name:
            expect(entry == second[name], f"{name}: {entry} then {second[name]}")


def test_clusters_generator_is_deterministic():
    def arrays(seed):
        batches = workloads.gen_clusters(1000, seed)
        return np.concatenate([b.features for b in batches]), np.concatenate([b.truth for b in batches])

    (fa, la), (fb, lb), (fc, _) = arrays(5), arrays(5), arrays(6)
    expect(np.array_equal(fa, fb) and np.array_equal(la, lb), "same seed, different clusters")
    expect(not np.array_equal(fa, fc), "different seeds, same clusters")
    expect(set(np.unique(la)) == {0, 1}, "clusters must carry both classes")


if __name__ == "__main__":
    tests = [value for name, value in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    print(f"{len(tests)} passed")
