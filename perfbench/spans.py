"""Wall-time spans, call counts, the per-sample timer and the per-batch speed
probe hook, all applied from outside.

Nothing here changes parsnet's source.  Spans are taken by replacing each
layer's public functions with timing wrappers for the length of a ``with``
block, and the originals are put back when the block ends, so later passes
in the same process run unwrapped.  Functions that ``parsnet.stream`` imports
by name are replaced on ``parsnet.stream``, methods on their classes.
"""

from __future__ import annotations

import functools
import os
import sys
from contextlib import contextmanager
from time import perf_counter_ns

from parsnet import agmm, network, plasticity, slash, stream

LAYERS = ("network", "agmm", "plasticity", "slash", "stream")

# (owner, attribute, span name); the span name's prefix is its layer.
TARGETS = (
    (network.Network, "generative_step", "network.generative_step"),
    (network.Network, "discriminative_step", "network.discriminative_step"),
    (network.Network, "predict_proba", "network.predict_proba"),
    (network.Network, "predict_batch", "network.predict_batch"),
    (network.Network, "add_nodes", "network.add_nodes"),
    (network.Network, "prune_nodes", "network.prune_nodes"),
    (network.Network, "theta", "network.theta"),
    (agmm.AgmmModel, "update", "agmm.update"),
    (agmm.AgmmModel, "class_posterior", "agmm.class_posterior"),
    (agmm.AgmmModel, "prior_weights", "agmm.prior_weights"),
    (stream, "expected_hidden", "plasticity.expected_hidden"),
    (stream, "bias_variance", "plasticity.bias_variance"),
    (stream, "prune_candidates", "plasticity.prune_candidates"),
    (plasticity.PhaseMonitor, "observe_bias", "plasticity.observe_bias"),
    (plasticity.PhaseMonitor, "observe_variance", "plasticity.observe_variance"),
    (slash.HedgeState, "record_step", "slash.record_step"),
    (slash.HedgeState, "refresh_importance", "slash.refresh_importance"),
    (slash.HedgeState, "pull", "slash.pull"),
    (slash.HedgeState, "set_anchor", "slash.set_anchor"),
    (slash.HedgeState, "grow_hidden", "slash.grow_hidden"),
    (slash.HedgeState, "prune_hidden", "slash.prune_hidden"),
    (slash.ReconScaler, "rescale", "slash.rescale"),
    (stream, "augment", "slash.augment"),
    (stream, "propose_label", "slash.propose_label"),
    (stream, "prequential_run", "stream.prequential_run"),
    (stream, "normalize_batches", "stream.normalize_batches"),
    (stream.StreamLearner, "predict", "stream.predict"),
    (stream.StreamLearner, "train_on_batch", "stream.train_on_batch"),
    (stream.StreamLearner, "train_on_sample", "stream.train_on_sample"),
)

GATE_REASONS = (slash.ACCEPTED, slash.LOW_CONFIDENCE, slash.DISAGREEMENT,
                slash.UNAVAILABLE)

_OWN_DIR = os.path.dirname(os.path.abspath(__file__))


def _original(owner, attribute):
    # Class attributes are read from __dict__ so that a plain function comes
    # back as itself rather than as a bound or unbound wrapper.
    return vars(owner)[attribute] if isinstance(owner, type) else getattr(owner, attribute)


@contextmanager
def _replaced(replacements):
    """Install ``{(owner, attribute): new}`` and restore the originals on exit."""
    saved = {key: _original(*key) for key in replacements}
    try:
        for (owner, attribute), new in replacements.items():
            setattr(owner, attribute, new)
        yield
    finally:
        for (owner, attribute), old in saved.items():
            setattr(owner, attribute, old)


class Tracer:
    """Self time and call counts per span, plus pseudo-label gate reasons.

    A span's self time is its duration minus the durations of the spans it
    directly encloses.  ``stack`` holds ``[layer, child_ns]`` for each open
    span; the call counter reads the innermost layer from it.
    """

    def __init__(self):
        self.stack: list[list] = []
        self.totals = {name: [0, 0] for _, _, name in TARGETS}  # calls, self_ns
        self.gate = dict.fromkeys(GATE_REASONS, 0)

    def _wrap(self, name, fn):
        stack, record = self.stack, self.totals[name]
        layer = name.split(".", 1)[0]
        gate = self.gate if name == "slash.propose_label" else None

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [layer, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                stack.pop()
                record[0] += 1
                record[1] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if gate is not None:
                gate[result[1]] += 1
            return result
        return span

    def installed(self):
        """Context manager that wraps every target for its duration."""
        return _replaced({(owner, attribute): self._wrap(name, _original(owner, attribute))
                          for owner, attribute, name in TARGETS})


class CallCounter:
    """Python-level and C-level call events per layer, from ``sys.setprofile``.

    Each ``call`` and ``c_call`` event is charged to the innermost open span
    of a :class:`Tracer`; events raised by the benchmark's own wrapper frames
    and events outside every span are not counted.  numpy ufuncs and operators
    raise no ``c_call`` event, so the C count covers builtins and methods only.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.counts = {layer: {"call": 0, "c_call": 0} for layer in LAYERS}

    def _profile(self, frame, event, arg):
        if event != "call" and event != "c_call":
            return
        stack = self.tracer.stack
        if not stack or frame.f_code.co_filename.startswith(_OWN_DIR):
            return
        self.counts[stack[-1][0]][event] += 1

    @contextmanager
    def installed(self):
        with self.tracer.installed():
            sys.setprofile(self._profile)
            try:
                yield
            finally:
                sys.setprofile(None)


def _timed(fn, sink):
    """``fn`` with one ``perf_counter_ns`` pair around each call, appended to ``sink``."""
    def timed(*args):
        start = perf_counter_ns()
        fn(*args)
        sink.append(perf_counter_ns() - start)
    return timed


def sample_timer(sink: list):
    """Context manager timing every ``StreamLearner.train_on_sample`` call into ``sink``."""
    learner = stream.StreamLearner
    return _replaced({(learner, "train_on_sample"):
                      _timed(_original(learner, "train_on_sample"), sink)})


def batch_probe(log: list, probe):
    """Context manager that calls ``probe()`` at the start of every batch,
    before ``StreamLearner.predict``, and appends ``(its result, its wall
    nanoseconds)`` to ``log``."""
    learner = stream.StreamLearner
    predict = _original(learner, "predict")

    def probed(self, features):
        start = perf_counter_ns()
        found = probe()
        log.append((found, perf_counter_ns() - start))
        return predict(self, features)
    return _replaced({(learner, "predict"): probed})


def timer_cost_ns(calls: int = 100_000) -> float:
    """Extra nanoseconds the per-sample timer adds to one call of a no-op."""
    def target(learner, x, label):
        return None

    timed = _timed(target, [])
    start = perf_counter_ns()
    for _ in range(calls):
        target(None, None, 0)
    plain = perf_counter_ns() - start
    start = perf_counter_ns()
    for _ in range(calls):
        timed(None, None, 0)
    return ((perf_counter_ns() - start) - plain) / calls
