"""The benchmark's four weak-label workloads, built from a seed.

A run of one workload replays ``STREAMS`` independent streams, each derived
from the run seed.  One stream gives a prequential classification rate that
swings by 10-20% from seed to seed, because the learner either collapses
onto the majority class or does not; the mean over ten streams is steady
enough to compare two commits by.  Streams of 3,000 samples are long enough
for the mixture churn to settle, so the hyperplane gate rejects nearly every
pseudo label and SEA's mixture mostly holds one component, as on long
streams, while a pass still takes only about a second.

Run as a script, this module is the set-up probe: it imports parsnet, builds
one workload's streams and prints their fingerprint, so that the caller can
time set-up in a fresh process.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass

import numpy as np

from parsnet.cli import gen_hyperplane, gen_sea
from parsnet.stream import (RunConfig, StreamScenario, as_batches,
                            make_infinite_delay, make_sporadic)

STREAMS = 10         # independent streams per run
STREAM_LENGTH = 3000  # samples per stream
BATCH_SIZE = 500     # six prequential evaluation points per stream
LABEL_FRACTION = 0.5

# clusters-sporadic: tight class-pure blobs whose centres all jump at mid-stream.
CLUSTER_COUNT = 8
CLUSTER_DIM = 4
CLUSTER_STD = 0.02


def gen_clusters(n: int, seed: int, batch_size: int = BATCH_SIZE):
    """``CLUSTER_COUNT`` Gaussian blobs in ``CLUSTER_DIM`` dimensions.

    Cluster ``i`` belongs to class ``i % 2``.  Every centre is redrawn at
    mid-stream (abrupt drift) from the same box, ``[0.1, 0.9]`` per
    dimension, so that scaling by the first batch's range clips little.
    """
    rng = np.random.default_rng(seed)
    features = np.empty((n, CLUSTER_DIM))
    labels = np.empty(n, dtype=np.int64)
    for lo, hi in ((0, n // 2), (n // 2, n)):
        centres = rng.uniform(0.1, 0.9, (CLUSTER_COUNT, CLUSTER_DIM))
        which = rng.integers(0, CLUSTER_COUNT, hi - lo)
        features[lo:hi] = centres[which] + rng.normal(0.0, CLUSTER_STD,
                                                      (hi - lo, CLUSTER_DIM))
        labels[lo:hi] = which % 2
    return as_batches(features, labels, batch_size)


def _sporadic(generator):
    def build(n, gen_seed, mask_rng):
        return make_sporadic(generator(n, gen_seed, BATCH_SIZE), LABEL_FRACTION, mask_rng)
    return build


def _delay(n, gen_seed, mask_rng):
    return make_infinite_delay(gen_sea(n, gen_seed, BATCH_SIZE))


BUILDERS = {
    "sea-sporadic": _sporadic(gen_sea),
    "sea-delay": _delay,
    "hyperplane-sporadic": _sporadic(gen_hyperplane),
    "clusters-sporadic": _sporadic(gen_clusters),
}


@dataclass
class Stream:
    """One prequential stream of a run: its scenario and its learner config."""

    index: int
    scenario: StreamScenario
    config: RunConfig

    @property
    def samples(self) -> int:
        return sum(b.truth.shape[0] for b in self.scenario.batches)

    @property
    def labelled(self) -> int:
        return sum(int((b.labels >= 0).sum()) for b in self.scenario.batches)


def build_streams(workload: str, seed: int, streams: int = STREAMS,
                  length: int = STREAM_LENGTH) -> list[Stream]:
    """The run's streams; the same workload and seed always give the same ones."""
    build = BUILDERS[workload]
    out = []
    for index in range(streams):
        gen_seed, mask_seed, learner_seed = (
            int(v) for v in np.random.SeedSequence([seed, index]).generate_state(3))
        scenario = build(length, gen_seed, np.random.default_rng(mask_seed))
        out.append(Stream(index, scenario, RunConfig(seed=learner_seed)))
    return out


def fingerprint(streams: list[Stream]) -> str:
    """sha256 over every stream's features, training labels and truth."""
    digest = hashlib.sha256()
    for stream in streams:
        for batch in stream.scenario.batches:
            for array in (batch.features, batch.labels, batch.truth):
                digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


if __name__ == "__main__":
    # Set-up probe: argv is <workload> <seed> <streams> <length>.
    name, seed, count, length = sys.argv[1], *map(int, sys.argv[2:5])
    print(fingerprint(build_streams(name, seed, count, length)), flush=True)
