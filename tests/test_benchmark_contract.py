"""The parts of parsnet that the benchmark in ``perfbench/`` hooks into.

The benchmark times layers by replacing the functions named in
``perfbench/spans.py`` ``TARGETS`` on their owners, times samples by
replacing ``StreamLearner.train_on_sample``, and builds its streams in
``perfbench/workloads.py`` from the generators and scenarios of
``parsnet.cli`` and ``parsnet.stream``.  A rename, a moved method or a
deleted name would make it fail at run time; these tests fail first.
"""

import importlib.util
import pathlib
import sys

import numpy as np
import pytest

from parsnet.stream import RunConfig, StreamLearner, prequential_run

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # Registered before it runs: dataclasses look their module up by name.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_span_target_exists_on_its_owner():
    spans = load_perfbench("spans")
    assert spans.TARGETS
    for owner, attribute, name in spans.TARGETS:
        # Class attributes are looked up in the class's own namespace, as the
        # benchmark does, so a method moved to a base class is caught too.
        found = vars(owner).get(attribute) if isinstance(owner, type) else getattr(
            owner, attribute, None)
        assert callable(found), f"{name}: {owner!r} has no callable {attribute!r}"


def test_train_on_batch_calls_train_on_sample_once_per_trained_sample(monkeypatch):
    calls = []
    original = StreamLearner.train_on_sample

    def counted(self, x, label):
        calls.append(label)
        return original(self, x, label)

    monkeypatch.setattr(StreamLearner, "train_on_sample", counted)
    features = np.random.default_rng(0).random((20, 3))
    features[4, 0] = np.nan
    labels = np.arange(20) % 3 - 1
    StreamLearner(3, 2, RunConfig(seed=0)).train_on_batch(features, labels)
    assert calls == [label for i, label in enumerate(labels.tolist()) if i != 4]


def test_every_workload_builds_its_streams():
    workloads = load_perfbench("workloads")
    assert workloads.BUILDERS
    for name in workloads.BUILDERS:
        (stream,) = workloads.build_streams(name, seed=0, streams=1, length=1000)
        assert stream.samples == 1000, name
        assert 0 < stream.labelled < stream.samples, name


def test_stream_zero_of_every_workload_matches_its_recorded_digest(monkeypatch):
    # A speed change must leave every output bit-identical; this replays one
    # recorded stream per benchmark workload so that a change which is not
    # fails here, not only in a benchmark run.
    monkeypatch.syspath_prepend(str(PERFBENCH))  # bench imports its siblings by name
    import bench
    import workloads

    for name in bench.benchmark_workloads():
        recorded, note = bench.recorded_digests(name, 0, workloads.STREAM_LENGTH)
        if recorded is None and "another platform" in note:
            pytest.skip(note)
        assert recorded is not None, f"{name}: {note}"
        (stream,) = workloads.build_streams(name, seed=0, streams=1)
        metrics = prequential_run(stream.config, stream.scenario)
        assert bench.digest(metrics) == recorded[0], name


def test_full_learner_state_of_every_workload_matches_its_recorded_digest(monkeypatch):
    # The signature digests above see accuracies, counts and events only; a
    # change that moves the learner's floats can keep them.  This replays
    # streams 0-2 of seed 0 of each workload and compares a digest of the
    # learner's whole state, by name, with the one recorded from the
    # reference outputs (tests/state_digest.py records it).
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import state_digest

    recorded, note = state_digest.recorded_state_digests()
    if recorded is None:
        pytest.skip(note)
    bench, workloads = state_digest.perfbench_modules()
    for name in bench.benchmark_workloads():
        streams = workloads.build_streams(name, seed=state_digest.SEED,
                                          streams=state_digest.STREAMS)
        found = [state_digest.replay_state_digest(stream) for stream in streams]
        assert found == recorded[name], name
