"""Weak-supervision policy: self-labelling with an anchored importance hedge.

Unlabelled samples earn a pseudo label only when the network and the
mixture class scorer agree on the class and are both confident in the
top-2 sense.  Training on a pseudo label carries a safety pull back toward
the parameters anchored at the last true label, weighted per parameter by
how much that parameter mattered while learning from real labels, and
scaled by how badly the current sample reconstructs.  Real labels are
additionally echoed once as a noise-augmented copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import THETA_KEYS, Network, normalized_top2

# Pseudo-label decision outcomes, as written to the audit log.
ACCEPTED = "accepted"
UNAVAILABLE = "unavailable"       # mixture has no class evidence yet
LOW_CONFIDENCE = "low_confidence"
DISAGREEMENT = "disagreement"

TABULAR_NOISE_STD = math.sqrt(1e-3)
IMAGE_NOISE_STD = 33.0 / 255.0    # 33 grey levels on the raw 0..255 scale

HIDDEN_AXIS_KEYS = ("w_in", "b_in", "w_out")  # rows indexed by hidden unit


@dataclass
class PseudoLabel:
    """A self-assigned class together with the confidences that earned it."""

    label: int
    agmm_confidence: float
    net_confidence: float


def propose_label(net_probs: np.ndarray, agmm_probs: np.ndarray | None,
                  agmm_threshold: float = 0.55,
                  net_threshold: float = 0.6) -> tuple[PseudoLabel | None, str]:
    """Gate an unlabelled sample; returns ``(pseudo_label_or_None, reason)``.

    A missing mixture posterior is reported as :data:`UNAVAILABLE`, distinct
    from a confidence or agreement rejection.
    """
    if agmm_probs is None:
        return None, UNAVAILABLE
    net_conf = normalized_top2(net_probs)
    agmm_conf = normalized_top2(agmm_probs)
    if agmm_conf < agmm_threshold or net_conf < net_threshold:
        return None, LOW_CONFIDENCE
    # asarray(...).argmax() is np.argmax without its Python-level wrapper.
    net_class = int(np.asarray(net_probs).argmax())
    if net_class != int(np.asarray(agmm_probs).argmax()):
        return None, DISAGREEMENT
    return PseudoLabel(net_class, agmm_conf, net_conf), ACCEPTED


class ReconScaler:
    """Running min-max rescaler for the reconstruction error."""

    def __init__(self):
        self.e_min = math.inf
        self.e_max = -math.inf

    def rescale(self, error: float) -> float:
        """Fold ``error`` into the extrema, then map it to [0, 1].

        Returns 0 while the observed range is still degenerate, so the very
        first sample (and a constant-error stream) exerts no pull.
        """
        self.e_min = min(self.e_min, error)
        self.e_max = max(self.e_max, error)
        span = self.e_max - self.e_min
        return (error - self.e_min) / span if span > 0.0 else 0.0


class HedgeState:
    """Per-parameter importance accumulators and the anchor parameters.

    ``loss_drop`` integrates, per parameter, how much of the loss decrease
    each real-label step attributed to that parameter (movement against the
    gradient counts positive).  Dividing by the squared total movement and
    normalising jointly to unit length yields the importance weights; the
    anchor is the parameter snapshot taken after the last true-label update.

    The importance weights are a pure function of the accumulators, so they
    are recomputed only after a method that changes the accumulators marks
    them stale; unlabelled stretches of a stream then reuse them as they are.
    """

    def __init__(self, theta: dict[str, np.ndarray], eps: float = 1e-8):
        self.eps = eps
        self.steps = 0
        self._stale = True
        self.anchor = {key: theta[key].copy() for key in THETA_KEYS}
        self.importance = {key: np.zeros_like(theta[key]) for key in THETA_KEYS}
        self.loss_drop = {key: np.zeros_like(theta[key]) for key in THETA_KEYS}
        self.movement = {key: np.zeros_like(theta[key]) for key in THETA_KEYS}

    @classmethod
    def for_network(cls, net: Network, eps: float = 1e-8) -> "HedgeState":
        return cls(net.theta(), eps)

    # -- accumulation (real labels only) ------------------------------------

    def record_step(self, lr: float, grads: dict[str, np.ndarray]) -> None:
        """Fold one true-label (or augmented) SGD step into the accumulators.

        ``lr`` is the step's learning rate and ``grads`` its data gradients,
        keyed like :data:`THETA_KEYS`; the step moved each parameter by
        ``delta = (-lr) * grad``.
        """
        for key in THETA_KEYS:
            grad = grads[key]
            delta = (-lr) * grad
            self.loss_drop[key] -= delta * grad
            self.movement[key] += np.abs(delta)
        self.steps += 1
        self._stale = True

    def refresh_importance(self) -> None:
        """Recompute normalised importance from the accumulators.

        Left at zero while no real-label step has been recorded, which keeps
        the pull inert.  Returns at once when nothing changed since the last
        recomputation.
        """
        if not self._stale:
            return
        self._stale = False
        total_sq = 0.0
        raw = {}
        for key in THETA_KEYS:
            value = self.loss_drop[key] / (self.movement[key] ** 2 + self.eps)
            raw[key] = value
            total_sq += float(np.add.reduce(value * value, axis=None))
        norm = math.sqrt(total_sq)
        if norm == 0.0:
            for key in THETA_KEYS:
                self.importance[key].fill(0.0)
        else:
            for key in THETA_KEYS:
                self.importance[key] = raw[key] / norm

    def set_anchor(self, theta: dict[str, np.ndarray]) -> None:
        """Snapshot the current parameters as the pull-back target."""
        for key in THETA_KEYS:
            self.anchor[key] = theta[key].copy()

    # -- the pull ------------------------------------------------------------

    def pull(self, theta: dict[str, np.ndarray], strength: float) -> dict[str, np.ndarray]:
        """Gradient addend ``strength * importance * (theta - anchor)``."""
        addend = {}
        for key in THETA_KEYS:
            if theta[key].shape != self.anchor[key].shape:
                raise ValueError(
                    f"hedge state for {key!r} is stale after a structural change; "
                    "resize it first")
            addend[key] = strength * self.importance[key] * (theta[key] - self.anchor[key])
        return addend

    # -- structural resizes ----------------------------------------------------

    def grow_hidden(self, theta: dict[str, np.ndarray], prev_hidden: int) -> None:
        """Extend the state after hidden units were appended.

        New rows enter the anchor at their freshly initialised values and the
        accumulators at zero: new units have no history to protect.
        """
        for key in HIDDEN_AXIS_KEYS:
            fresh = theta[key][prev_hidden:]
            self.anchor[key] = np.concatenate([self.anchor[key], fresh.copy()])
            for store in (self.importance, self.loss_drop, self.movement):
                store[key] = np.concatenate([store[key], np.zeros_like(fresh)])
        self._stale = True

    def prune_hidden(self, keep: np.ndarray) -> None:
        """Drop the rows of removed hidden units from every accumulator."""
        for key in HIDDEN_AXIS_KEYS:
            for store in (self.anchor, self.importance, self.loss_drop, self.movement):
                store[key] = store[key][keep]
        # Dropping rows changes the joint norm, so the survivors renormalise.
        self._stale = True


def augment(x: np.ndarray, label: int, rng: np.random.Generator,
            mode: str = "tabular") -> tuple[np.ndarray, int]:
    """Zero-mean Gaussian jitter of a labelled sample, label carried unchanged.

    Features are expected on the normalised [0, 1] scale; the image noise
    level corresponds to 33 grey levels of a 0..255 image.  The result is
    clipped back into [0, 1].
    """
    if mode == "tabular":
        std = TABULAR_NOISE_STD
    elif mode == "image":
        std = IMAGE_NOISE_STD
    else:
        raise ValueError(f"unknown augmentation mode {mode!r}")
    jittered = np.minimum(np.maximum(x + rng.normal(0.0, std, x.shape), 0.0), 1.0)
    return jittered, label
