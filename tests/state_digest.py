"""A digest of a stream learner's full state after a prequential run.

``RunMetrics.signature()`` holds accuracies, counts and events, so a change
that moves the learner's floats in their last bits can keep it.  This digest
hashes the held state itself, by name: the network parameters, the mixture
arrays, the hedge stores key by key, both phase monitors, the error scaler,
the random generator, the counters and the events.  Reading every array
through its name keeps the digest independent of how the arrays are laid
out in memory.  The mixture's rows, the hedge's stores and a running
statistic's slots are read from the lists their own modules keep, so a
piece of state listed there is hashed too.  Derived caches are left out:
the mixture's class conditionals are a function of its ``class_counts``,
and the hedge's importance of its two accumulators, which are hashed, so
the digest does not pin when a cache is refilled.
``test_stream::test_derived_caches_do_not_change_learning`` shows that
dropping every cache on every sample leaves this digest as it is.

    PYTHONPATH=src python3 tests/state_digest.py

replays streams 0-2 of seed 0 of every ``BENCHMARK.json`` workload and
writes their digests to ``tests/state_digests.json`` under this machine's
platform key, next to any other platform's record.  Record only from a
commit whose outputs are the reference; a change meant to keep outputs
bit-identical must leave the file alone.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

import numpy as np

from parsnet import agmm, slash
from parsnet.network import THETA_KEYS, theta_views
from parsnet.plasticity import RunningStat
from parsnet.stream import StreamLearner, prequential_run

HERE = pathlib.Path(__file__).resolve().parent
PERFBENCH = HERE.parent / "perfbench"
DIGEST_FILE = HERE / "state_digests.json"
SEED = 0
STREAMS = 3


def _named_state(learner: StreamLearner):
    """Yield ``(name, value)`` for every piece of the learner's state."""
    net, mixture, hedge = learner.net, learner.mixture, learner.hedge
    for key in ("w_in", "b_in", "d", "w_out", "c_out"):
        yield f"net.{key}", getattr(net, key)
    for key in agmm._ROWS:
        yield f"mixture.{key}", getattr(mixture, key)
    for store in slash._STORES:
        named = theta_views(getattr(hedge, store), net.n_inputs, net.n_classes)
        for key in THETA_KEYS:
            yield f"hedge.{store.lstrip('_')}.{key}", named[key]
    # The hedge records two steps per labelled sample: the label and its
    # augmented copy, the only steps that count in ``disc_aug_steps``.
    yield "hedge.steps", 2 * learner.counters["disc_aug_steps"]
    for phase in ("gen_monitor", "disc_monitor"):
        monitor = getattr(learner, phase)
        yield f"{phase}.levels", (monitor.bias_level, monitor.var_level)
        for stat in ("bias_stat", "var_stat"):
            running = getattr(monitor, stat)
            yield f"{phase}.{stat}", tuple(getattr(running, slot)
                                           for slot in RunningStat.__slots__)
    yield "scaler", (learner.scaler.e_min, learner.scaler.e_max)
    yield "rng", learner.rng.bit_generator.state
    counters = learner.counters
    yield "counts", (counters["disc_pseudo_steps"], counters["samples"], learner._last_growth)
    yield "counters", sorted(counters.items())
    yield "events", learner.events


def learner_state_digest(learner: StreamLearner) -> str:
    h = hashlib.sha256()
    for name, value in _named_state(learner):
        h.update(name.encode() + b"\0")
        if isinstance(value, np.ndarray):
            h.update(f"{value.dtype.str}{value.shape}".encode())
            h.update(np.ascontiguousarray(value).tobytes())
        else:
            # repr of a Python float round-trips exactly.
            h.update(repr(value).encode())
        h.update(b"\0")
    return h.hexdigest()


def replay_state_digest(stream) -> str:
    """Run one benchmark stream prequentially; the digest of the final learner."""
    learners = []
    init = StreamLearner.__init__

    def capturing_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        learners.append(self)

    StreamLearner.__init__ = capturing_init
    try:
        prequential_run(stream.config, stream.scenario)
    finally:
        StreamLearner.__init__ = init
    (learner,) = learners
    return learner_state_digest(learner)


def perfbench_modules():
    """The benchmark's ``bench`` and ``workloads`` modules."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))  # bench imports its siblings by name
    import bench
    import workloads
    return bench, workloads


def recorded_state_digests() -> tuple[dict | None, str]:
    """This platform's recorded digests, keyed by workload, and a note."""
    bench, _ = perfbench_modules()
    record = json.loads(DIGEST_FILE.read_text())
    mine = record.get(bench.platform_key())
    if mine is None:
        return None, f"{DIGEST_FILE.name} holds no record for this platform"
    return mine, "checked"


def main() -> None:
    bench, workloads = perfbench_modules()
    digests = {}
    for name in bench.benchmark_workloads():
        streams = workloads.build_streams(name, seed=SEED, streams=STREAMS)
        digests[name] = [replay_state_digest(stream) for stream in streams]
        print(name, digests[name], flush=True)
    record = json.loads(DIGEST_FILE.read_text()) if DIGEST_FILE.exists() else {}
    record[bench.platform_key()] = digests
    DIGEST_FILE.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
