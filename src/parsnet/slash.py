"""Weak-supervision policy: self-labelling with an anchored importance hedge.

Unlabelled samples earn a pseudo label only when the network and the
mixture class scorer agree on the class and are both confident in the
top-2 sense.  The mixture side (:func:`mixture_confidence`) is asked first,
once per sample, so the learner scores a sample with the network only where
that side passes or a log is attached; :func:`propose_label` takes the
confidence it returned.  Training on a pseudo label carries a safety pull
back toward the parameters anchored at the last true label, weighted per
parameter by how much that parameter mattered while learning from real
labels, and scaled by how badly the current sample reconstructs.  Real
labels are additionally echoed once as a noise-augmented copy.

The hedge keeps its stores in the flat layout of ``Network.params``: the
gradients that ``record_step`` folds in, the parameters that ``set_anchor``
and ``pull`` take and the addend that ``pull`` returns are all flat vectors
in that layout, so each is one vector operation.  The self-labelled step
that consumes the addend reuses the forward pass of the ``predict_proba``
call that scored the sample (the contract is in the ``network`` docstring).
"""

from __future__ import annotations

import math
import numpy as np

from .network import constants, flatten_theta, normalized_top2, theta_bounds

# Pseudo-label decision outcomes, as recorded in the learner's gate log.
ACCEPTED = "accepted"
UNAVAILABLE = "unavailable"       # mixture has no class evidence yet
LOW_CONFIDENCE = "low_confidence"
DISAGREEMENT = "disagreement"

# Jitter std of the augmented copy, on the normalised [0, 1] feature scale.
AUGMENT_NOISE_STD = math.sqrt(1e-3)

_ZERO, _ONE = constants(0.0, 1.0)

_STORES = ("_anchor", "_importance", "_loss_drop", "_movement")


def mixture_confidence(agmm_probs: np.ndarray | None, agmm_threshold: float) -> float | None:
    """The posterior's top-2 confidence, or ``None`` where it is missing or below
    ``agmm_threshold``: then the gate rejects whatever the network says."""
    agmm_conf = None if agmm_probs is None else normalized_top2(agmm_probs)
    return None if agmm_conf is None or agmm_conf < agmm_threshold else agmm_conf


def propose_label(net_probs: np.ndarray | None, agmm_probs: np.ndarray | None,
                  agmm_conf: float | None,
                  net_threshold: float) -> tuple[int | None, str]:
    """Gate an unlabelled sample; returns ``(label_or_None, reason)``.

    ``agmm_conf`` is :func:`mixture_confidence` of ``agmm_probs``.  A missing
    mixture posterior is reported as :data:`UNAVAILABLE`, distinct from a
    confidence or agreement rejection.  ``net_probs`` may be ``None`` where
    ``agmm_conf`` is: the network was not scored.
    """
    if agmm_probs is None:
        return None, UNAVAILABLE
    net_conf = None if net_probs is None else normalized_top2(net_probs)
    if agmm_conf is None or net_conf < net_threshold:
        return None, LOW_CONFIDENCE
    # ndarray.argmax() is np.argmax without its Python-level wrapper.
    net_class = int(net_probs.argmax())
    if net_class != int(agmm_probs.argmax()):
        return None, DISAGREEMENT
    return net_class, ACCEPTED


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

    The four stores (``_anchor``, ``_importance``, ``_loss_drop``, ``_movement``)
    are flat vectors in the layout of ``Network.params``, so ``record_step``,
    ``pull`` and ``set_anchor`` each work on whole vectors, and a structural
    change resizes each with the positions that the network returned.

    The importance weights are a pure function of the accumulators, so they
    are recomputed only after a method that changes the accumulators marks
    them stale; unlabelled stretches of a stream then reuse them as they are.
    """

    def __init__(self, theta: dict[str, np.ndarray], eps: float = 1e-8):
        self.eps = eps
        self._stale = True
        self.n_inputs = theta["w_in"].shape[1]
        self.n_classes = theta["c_out"].shape[0]
        self._anchor = flatten_theta(**theta)
        self._importance, self._loss_drop, self._movement = (
            np.zeros_like(self._anchor) for _ in range(3))

    # -- accumulation (real labels only) ------------------------------------

    def record_step(self, lr: float, grads: np.ndarray) -> None:
        """Fold one true-label (or augmented) SGD step into the accumulators.

        ``lr`` is the step's learning rate and ``grads`` its flat data
        gradient; the step moved each parameter by ``delta = (-lr) * grad``.
        """
        delta = (-lr) * grads
        self._loss_drop -= delta * grads
        self._movement += np.abs(delta)
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
        raw = self._loss_drop / (self._movement ** 2 + self.eps)
        # The squared norm is summed segment by segment, in THETA_KEYS order:
        # one reduction over the whole vector would add in another order.
        squares, total_sq = raw * raw, 0.0
        bounds = theta_bounds(raw.shape[0], self.n_inputs, self.n_classes)
        for start, stop in zip((0,) + bounds, bounds):
            total_sq += float(np.add.reduce(squares[start:stop]))
        norm = math.sqrt(total_sq)
        if norm == 0.0:
            self._importance.fill(0.0)
        else:
            self._importance = raw / norm

    def set_anchor(self, params: np.ndarray) -> None:
        """Snapshot the current flat parameters as the pull-back target."""
        self._anchor = params.copy()

    # -- the pull ------------------------------------------------------------

    def pull(self, params: np.ndarray, strength: float) -> np.ndarray:
        """Flat gradient addend ``strength * importance * (params - anchor)``."""
        if params.shape != self._anchor.shape:
            raise ValueError("hedge state is stale after a structural change; "
                             "resize it first")
        return strength * self._importance * (params - self._anchor)

    # -- structural resizes ----------------------------------------------------

    def grow_hidden(self, params: np.ndarray, carried: np.ndarray) -> None:
        """Extend every store to the grown ``params`` at the ``carried`` positions
        that ``Network.add_nodes`` returned; new entries start at their initial
        values in the anchor and at zero in the accumulators (no history yet)."""
        for name in _STORES:
            grown = params.copy() if name == "_anchor" else np.zeros_like(params)
            grown[carried] = getattr(self, name)
            setattr(self, name, grown)
        self._stale = True

    def prune_hidden(self, kept: np.ndarray) -> None:
        """Keep the ``kept`` positions that ``Network.prune_nodes`` returned,
        in every store."""
        for name in _STORES:
            setattr(self, name, getattr(self, name)[kept])
        # Dropping entries changes the joint norm, so the survivors renormalise.
        self._stale = True


def augment(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A labelled sample plus zero-mean Gaussian jitter of std
    :data:`AUGMENT_NOISE_STD`; the copy keeps the sample's label.

    Features are expected on the normalised [0, 1] scale; the result is
    clipped back into [0, 1].
    """
    return np.minimum(np.maximum(x + rng.normal(0.0, AUGMENT_NOISE_STD, x.shape), _ZERO), _ONE)
