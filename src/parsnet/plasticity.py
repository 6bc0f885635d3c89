"""Structural triggers for the hidden layer, driven by streaming bias/variance.

The expected hidden activation under the current input-density mixture is
the backbone: pushed through the relevant output map it yields a bias and a
variance estimate per sample and per phase.  Running statistics of those
estimates, compared against their historical minima with an adaptive
confidence level, decide when to add hidden units and when an over-complex
network should shed the least contributing ones.
"""

from __future__ import annotations

import math

import numpy as np

from .network import Network, sigmoid, softmax


class RunningStat:
    """Streaming mean/std with resettable minimum trackers.

    The minimum trackers follow the smallest running mean seen so far and
    the std recorded at that same moment; they reset to the current values
    when a trigger fires, while the main statistics are never reset.
    """

    __slots__ = ("n", "mean", "m2", "min_mean", "min_std")

    def __init__(self):
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0
        self.min_mean = math.inf
        self.min_std = 0.0

    @property
    def std(self) -> float:
        return math.sqrt(self.m2 / self.n) if self.n > 0 else 0.0

    def update(self, value: float) -> None:
        self.n += 1
        delta = value - self.mean
        self.mean += delta / self.n
        self.m2 += delta * (value - self.mean)
        if self.mean < self.min_mean:
            self.min_mean = self.mean
            self.min_std = self.std

    def reset_min(self) -> None:
        self.min_mean = self.mean
        self.min_std = self.std

    def fires(self, factor: float) -> bool:
        """Whether ``mean + std`` reached ``min_mean + factor * min_std``, from the
        second value on; a firing check re-arms the minima."""
        fire = self.n >= 2 and self.mean + self.std >= self.min_mean + factor * self.min_std
        if fire:
            self.reset_min()
        return fire


class PhaseMonitor:
    """Grow/prune decision state for one training phase.

    ``bias_level`` is the adaptive confidence factor in (0.8, 2.0]: high when
    the bias is low (strict insertion regime) and dropping toward 0.8 as the
    bias grows.  ``var_level`` plays the same role for the variance check,
    where the doubled factor keeps a freshly grown network from being pruned
    right back.
    """

    def __init__(self):
        self.bias_stat = RunningStat()
        self.var_stat = RunningStat()
        self.bias_level = 2.0
        self.var_level = 2.0

    def observe_bias(self, bias_sq: float) -> bool:
        """Record one squared-bias observation; True when the network should grow."""
        self.bias_stat.update(bias_sq)
        self.bias_level = 1.2 * math.exp(-bias_sq) + 0.8
        return self.bias_stat.fires(self.bias_level)

    def observe_variance(self, variance: float) -> bool:
        """Record one variance observation; True when pruning should be considered."""
        self.var_stat.update(variance)
        self.var_level = 1.2 * math.exp(-variance) + 0.8
        return self.var_stat.fires(2.0 * self.var_level)


def expected_hidden(net: Network, mixture) -> np.ndarray:
    """Expected encoder activation under the mixture density.

    Integrates each sigmoid against one diagonal Gaussian via the probit
    approximation: the component centre is shrunk per dimension by
    ``1/sqrt(1 + pi * spread^2 / 8)`` before entering the encoder, and the
    per-component results are blended with the support-based prior weights.
    A one-component mixture returns its one row: its weight is exactly 1.0
    (the identity the :mod:`parsnet.agmm` docstring states).
    """
    per_component = sigmoid(mixture.shrunk_centers().dot(net.w_in.T) + net.b_in)
    if per_component.shape[0] == 1:
        return per_component[0]
    return mixture.prior_weights().dot(per_component)


def bias_variance(e_hidden: np.ndarray, target: np.ndarray, net: Network,
                  phase: str) -> tuple[float, float]:
    """Squared bias and variance of the phase output around its expectation.

    The second moment of the hidden units is taken as the elementwise square
    of the first (independence shortcut), so the variance reflects only the
    curvature of the output map and may come out slightly negative.
    """
    if phase == "discriminative":
        squash, weight, offset = softmax, net.w_out, net.c_out
    elif phase == "generative":
        squash, weight, offset = sigmoid, net.w_in, net.d
    else:
        raise ValueError(f"unknown phase {phase!r}")
    # One squash for both moments; the two products stay apart, because a
    # stacked product could sum in another order.
    first, second = squash(np.array((e_hidden.dot(weight) + offset,
                                     (e_hidden * e_hidden).dot(weight) + offset)))
    diff = first - target
    bias_sq = float(diff.dot(diff))
    variance = float(np.add.reduce(second - first * first))
    return bias_sq, variance


def prune_candidates(e_hidden: np.ndarray) -> list[int]:
    """Hidden units whose expected activation falls half a sigma under the mean.

    Never returns every unit: the strongest one is kept when the rule catches
    the whole layer, which happens in the all-equal case and so always for a
    single unit, whose cutoff is its own value.
    """
    cutoff = e_hidden.mean() - 0.5 * e_hidden.std()
    doomed = e_hidden <= cutoff
    if doomed.all():
        doomed[int(e_hidden.argmax())] = False
    return np.flatnonzero(doomed).tolist()
