"""The machine-speed probe behind the benchmark's scaled times.

The benchmark runs on shared virtual machines whose speed changes under it.
On the 2-core machine of record (Intel Xeon, Python 3.11, numpy 2.4 with
OpenBLAS on one thread), spells in which everything runs 1.5-2x slower come
and go every few seconds, with no steal time shown to the guest, and short
bursts stall the process for milliseconds.  A spell slows a fixed piece of
work by about the same factor as it slows parsnet.  So the benchmark probes
the speed right before and after each pass of the learner and scales the
pass's times by ``REFERENCE_NS`` over the probe's mean: each time then reads
as it would on the machine of record outside a spell.

The kernel is the benchmark's own code and must not change, because it is
the unit every scaled time is expressed in.  Like parsnet, it spends its
time in the interpreter and in small numpy calls.
"""

from __future__ import annotations

from time import perf_counter_ns

import numpy as np

# The probe on the machine of record outside a spell, in nanoseconds.
REFERENCE_NS = 280e3

_rng = np.random.default_rng(20191101)
_WEIGHTS = _rng.normal(0.0, 0.3, (16, 4))
_INPUTS = _rng.normal(0.0, 1.0, (40, 4))


def kernel() -> float:
    """A tied autoencoder trained on 40 fixed 4-d samples, one at a time."""
    w = _WEIGHTS.copy()
    loss = 0.0
    for x in _INPUTS:
        h = np.tanh(w @ x)
        e = w.T @ h - x
        w -= 0.001 * np.outer(h, e)
        loss += float(e @ e)
    return loss


def probe_ns(repeats: int = 25) -> float:
    """The kernel's best time over ``repeats`` calls, in nanoseconds.

    The best of many short calls skips millisecond stalls but not a spell,
    which slows every call.
    """
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter_ns()
        kernel()
        best = min(best, perf_counter_ns() - start)
    return best
