"""Self-adjusting diagonal Gaussian mixture for streaming density estimation.

The mixture starts empty and maintains an open structure: a sample that
falls outside the coverage of every existing component, and survives a
vigilance check on the winning component's remaining room, becomes the
centre of a fresh component.  Samples that stay inside coverage instead
tune the winning component through support-weighted running-moment
updates.  Components whose average activation over their lifetime drops
well below the population are retired.  Per-component class frequency
counts additionally turn the mixture into a cheap class scorer for weakly
labelled streams.

All operations are strictly single-pass: each sample is looked at once and
never stored.

Validation contract: every public method checks its input once, on entry
(a sample through :func:`~parsnet.network.check_sample`, the check the
network and the stream learner share, and the class label range); the
private helpers it calls (``_activations``, ``_should_insert``, ``_insert``,
``_tune``, ``_observe_label``) trust their input.  A streaming step
therefore pays for one check per sample, and a rejected sample leaves the
mixture untouched.

Cached class conditionals: ``class_posterior`` needs, per component, the
class frequencies normalised by the component's label total (uniform for a
component that has seen no label).  They depend on ``class_counts`` alone,
which changes only when a label is credited or a component is added or
removed, while the posterior is asked for on every unlabelled sample.  The
matrix is therefore kept in ``_conditionals`` and rebuilt on the next
``class_posterior`` after ``_insert``, ``_observe_label`` or a
``prune_inactive`` that removes a component clears it.  Code that writes
``class_counts`` directly must clear it too.  A rebuild divides by the totals
floored at 1, then makes the rows without a label uniform.  The per-state
cache, ``_priors`` and ``_shrunk`` (read-only results of ``prior_weights`` and
``shrunk_centers``), serves the posterior and both structural checks of one
mixture state; ``_insert``, ``_tune`` and a removing ``prune_inactive`` clear
it, as must code that writes ``centers``, ``spreads`` or ``support``.  A pure
function of those arrays, it is no part of the learner's saved state.

Overflow: the standardised distance ``z = (x - centre) / spread`` is
squared without an ``np.errstate`` guard, whose context costs more than the
arithmetic on every call.  Inputs on the normalised [0, 1] scale cannot
overflow it.  A sample far outside that range can: ``z * z`` becomes
``inf``, so the activation is 0 and the log-likelihood ``-inf``, as with the
guard, but numpy now emits its overflow ``RuntimeWarning``.

Hot-path reductions whose result is order-free take C-level forms:
``sum(a.tolist())`` for an integer sum, ``a[a.argmax()]`` for a NaN-free
maximum, ``np.count_nonzero`` for all/any.  A float sum keeps ``np.add.reduce``
(its bits follow numpy's pairwise order), which skips ``ndarray.sum``'s wrapper.
"""

from __future__ import annotations

import math

import numpy as np

from .network import check_sample, constants

# Variance floor: tuning on a near-constant stream collapses the spread,
# and both activation and likelihood divide by it.
VARIANCE_FLOOR = 1e-8
PROBIT_SCALE = math.pi / 8.0  # of the probit approximation in ``shrunk_centers``
_MINUS_HALF, _FLOOR, _ONE, _PROBIT = constants(-0.5, VARIANCE_FLOOR, 1.0, PROBIT_SCALE)

LOG_2PI = math.log(2.0 * math.pi)


class EmptyModelError(RuntimeError):
    """An operation required at least one component."""


class NoClassEvidenceError(RuntimeError):
    """Class posterior requested before any label has been observed."""


def _threshold_denominator(dim: int) -> float:
    return 4.0 - 2.0 * math.exp(-dim / 20.0)


def _check_confidence(confidence: float) -> None:
    if confidence <= 0.0:
        raise ValueError("insertion_threshold: confidence must be positive")


def insertion_threshold(dim: int, confidence: float) -> float:
    """Proximity level below which a sample counts as uncovered input space.

    Decays with the input dimension so that high-dimensional streams do not
    insert a component for every sample; ``confidence`` shifts the coverage
    band in the same way a sigma-rule confidence level would.
    """
    if dim < 1:
        raise ValueError("insertion_threshold: dim must be >= 1")
    _check_confidence(confidence)
    return math.exp(-(dim * confidence) / _threshold_denominator(dim))


def _activity_cutoff(rate: np.ndarray) -> float:
    """``abs(rate.mean() - 0.5 * rate.std())`` for a 1-d ``rate``.

    Written out in numpy's own order of operations for ``mean`` and ``var``,
    so it is bit for bit the same without their Python-level wrappers.
    """
    n = rate.shape[0]
    mean = np.add.reduce(rate) / n
    dev = rate - mean
    return abs(mean - 0.5 * math.sqrt(np.add.reduce(dev * dev) / n))


class AgmmModel:
    """Online mixture with insertion, winner tuning and activity pruning.

    Component state is stored as stacked arrays, one row per component, so
    the per-sample operations stay vectorised.  ``spreads`` holds
    per-dimension standard deviations and stays strictly positive;
    ``activity`` accumulates each component's activation over its
    ``lifespan``, so ``0 <= activity <= lifespan`` always holds.
    """

    def __init__(self, input_dim: int, num_classes: int,
                 init_spread: float = 0.1, prune_grace: int = 40):
        if input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if init_spread <= 0.0:
            raise ValueError("init_spread must be positive")
        self.input_dim = input_dim
        self.num_classes = num_classes
        self.init_spread = init_spread
        self.prune_grace = prune_grace
        self.centers = np.empty((0, input_dim))
        self.spreads = np.empty((0, input_dim))
        self.support = np.empty(0, dtype=np.int64)
        self.lifespan = np.empty(0, dtype=np.int64)
        self.activity = np.empty(0)
        self.class_counts = np.empty((0, num_classes), dtype=np.int64)
        self._conditionals: np.ndarray | None = None
        self._priors = self._shrunk = None
        self._threshold_denominator = _threshold_denominator(input_dim)

    # -- structure ---------------------------------------------------------

    @property
    def size(self) -> int:
        return self.centers.shape[0]

    # -- scoring -----------------------------------------------------------

    def _check_label(self, label: int) -> None:
        if not 0 <= label < self.num_classes:
            raise ValueError(f"label {label} outside 0..{self.num_classes - 1}")

    def _activations(self, x: np.ndarray) -> np.ndarray:
        """Activation of every component for ``x`` (empty array when size is 0).

        A component's activation is its worst per-dimension Gaussian kernel,
        a value in (0, 1] that reaches 1 exactly when ``x`` sits on the
        centre in every dimension.  The winner is the most activated
        component, the first one on a tie.
        """
        if self.size == 0:
            return np.empty(0)
        z = (x - self.centers) / self.spreads
        return np.exp(_MINUS_HALF * np.maximum.reduce(z * z, axis=1))

    def prior_weights(self) -> np.ndarray:
        """Relative support of each component (sums to 1); read-only, cached."""
        if self._priors is None:
            if self.size == 0:
                raise EmptyModelError("mixture has no components yet")
            self._priors = self.support / sum(self.support.tolist())
            self._priors.flags.writeable = False
        return self._priors

    def shrunk_centers(self) -> np.ndarray:
        """Centres over ``sqrt(1 + PROBIT_SCALE * spreads**2)``; read-only, cached."""
        if self._shrunk is None:
            self._shrunk = self.centers / np.sqrt(_ONE + _PROBIT * self.spreads ** 2)
            self._shrunk.flags.writeable = False
        return self._shrunk

    def _log_likelihood(self, x: np.ndarray) -> np.ndarray:
        z = (x - self.centers) / self.spreads
        return (_MINUS_HALF * np.add.reduce(z * z, axis=1)
                - np.add.reduce(np.log(self.spreads), axis=1)
                - 0.5 * self.input_dim * LOG_2PI)

    def _weighted_likelihoods(self, x: np.ndarray) -> np.ndarray:
        """Prior-weighted likelihoods of ``x``, unnormalised, scaled by the
        largest likelihood; the support-based priors when every likelihood
        underflows to zero."""
        priors = self.prior_weights()
        log_lik = self._log_likelihood(x)
        peak = log_lik[log_lik.argmax()]
        if not math.isfinite(peak):
            return priors
        # The largest term is its prior times exp(0), so the sum stays positive.
        return priors * np.exp(log_lik - peak)

    def mixing_coefficients(self, x: np.ndarray) -> np.ndarray:
        """Posterior component responsibilities for ``x``; always sums to 1.

        When every likelihood underflows to zero the support-based priors
        are returned instead, preserving the partition of unity.
        """
        weights = self._weighted_likelihoods(check_sample(x, self.input_dim))
        weights = weights / weights.sum()
        if abs(weights.sum() - 1.0) > 1e-9:
            raise AssertionError("mixing coefficients lost the partition of unity")
        return weights

    def class_posterior(self, x: np.ndarray) -> np.ndarray:
        """Class probabilities from per-component label frequency counts.

        Components that have never seen a label contribute a uniform class
        conditional.  Raises :class:`NoClassEvidenceError` when no label has
        been observed anywhere, signalling the caller to skip self-labelling.
        """
        x = check_sample(x, self.input_dim)
        if self.size == 0:
            raise EmptyModelError("mixture has no components yet")
        conditionals = self._class_conditionals()
        scores = self._weighted_likelihoods(x).dot(conditionals)
        posterior = scores / np.add.reduce(scores)
        if abs(np.add.reduce(posterior) - 1.0) > 1e-9:
            raise AssertionError("class posterior lost the partition of unity")
        return posterior

    def _class_conditionals(self) -> np.ndarray:
        """Per-component class frequencies, cached until ``class_counts`` changes."""
        if self._conditionals is None:
            totals = np.add.reduce(self.class_counts, axis=1)
            if sum(totals.tolist()) == 0:
                raise NoClassEvidenceError("no labelled observations recorded")
            conditionals = self.class_counts / np.maximum(totals, 1)[:, None]
            conditionals[totals == 0] = 1.0 / self.num_classes
            self._conditionals = conditionals
        return self._conditionals

    # -- adaptation --------------------------------------------------------

    def insert(self, x: np.ndarray) -> None:
        """Add a component centred on ``x`` with the initial spread."""
        self._insert(check_sample(x, self.input_dim))

    def _insert(self, x: np.ndarray) -> None:
        self.centers = np.vstack([self.centers, x[None, :]])
        self.spreads = np.vstack([self.spreads, np.full((1, self.input_dim), self.init_spread)])
        self.support = np.append(self.support, 1)
        self.lifespan = np.append(self.lifespan, 0)
        self.activity = np.append(self.activity, 0.0)
        self.class_counts = np.vstack(
            [self.class_counts, np.zeros((1, self.num_classes), dtype=np.int64)])
        self._conditionals = self._priors = self._shrunk = None

    def vigilance_passes(self, win: int) -> bool:
        """Whether the winner has run out of room to absorb more samples.

        Counts, per dimension, how many other components sit outside the
        winner's one-spread band; the winner must span at least that portion
        of the combined span of the others for an insertion to go ahead.
        With a single component the test is vacuously true.
        """
        if self.size <= 1:
            return True
        low = self.centers[win] - self.spreads[win]
        high = self.centers[win] + self.spreads[win]
        # The winner's own centre lies inside its band: spreads are positive.
        outside = (self.centers < low) | (self.centers > high)
        rho = np.count_nonzero(outside) / ((self.size - 1) * self.input_dim)
        span = np.add.reduce(self.spreads, axis=1) / self.input_dim
        return bool(span[win] >= rho * (np.add.reduce(span) - span[win]))

    def _should_insert(self, acts: np.ndarray, confidence: float) -> bool:
        """Insertion gate: uncovered by every component AND vigilance passes."""
        # insertion_threshold with its dimension-only denominator precomputed.
        _check_confidence(confidence)
        threshold = math.exp(-(self.input_dim * confidence) / self._threshold_denominator)
        win = int(acts.argmax())
        if acts[win] >= threshold:
            return False
        return self.vigilance_passes(win)

    def _tune(self, win: int, x: np.ndarray) -> None:
        """Pull the winning component toward ``x`` with support-weighted moments.

        The centre moves first; the spread update then measures the squared
        distance to the already-moved centre, which keeps the variance
        estimate nonnegative-biased.
        """
        gain = 1.0 / (int(self.support[win]) + 1.0)
        old = self.centers[win]
        center = old + (x - old) * gain
        variance = self.spreads[win] ** 2
        variance = variance + ((x - center) ** 2 - variance) * gain
        np.maximum(variance, _FLOOR, out=variance)
        self.centers[win] = center
        self.spreads[win] = np.sqrt(variance)
        self.support[win] += 1
        self._priors = self._shrunk = None

    def _observe_label(self, x: np.ndarray, label: int) -> None:
        """Credit ``label`` to the component that wins ``x``."""
        self.class_counts[int(self._activations(x).argmax()), label] += 1
        self._conditionals = None

    def prune_inactive(self) -> list[int]:
        """Retire components whose lifetime activity rate fell off the population.

        Components younger than ``prune_grace`` samples are protected, and at
        least one component always survives (the most active one is kept when
        the rule would empty the model).  Returns the removed indices.
        """
        # With every component inside its grace period nothing can be doomed.
        if self.size < 2 or self.lifespan[self.lifespan.argmax()] < self.prune_grace:
            return []
        rate = self.activity / np.maximum(self.lifespan, 1)
        doomed = (self.lifespan >= self.prune_grace) & (rate <= _activity_cutoff(rate))
        count = np.count_nonzero(doomed)
        if count == 0:
            return []
        if count == self.size:
            doomed[int(rate.argmax())] = False
        removed = np.flatnonzero(doomed)
        keep = ~doomed
        self.centers = self.centers[keep]
        self.spreads = self.spreads[keep]
        self.support = self.support[keep]
        self.lifespan = self.lifespan[keep]
        self.activity = self.activity[keep]
        self.class_counts = self.class_counts[keep]
        self._conditionals = self._priors = self._shrunk = None
        return removed.tolist()

    def update(self, x: np.ndarray, confidence: float,
               label: int | None = None) -> tuple[bool, list[int]]:
        """One full streaming step: age, insert-or-tune, prune, credit label.

        Returns ``(inserted, pruned_indices)`` so callers can log structural
        events.  The very first sample bootstraps the mixture.  The sample and
        the label are checked before any state changes.
        """
        x = check_sample(x, self.input_dim)
        if label is not None:
            self._check_label(label)
        if self.size == 0:
            self._insert(x)
            if label is not None:
                self._observe_label(x, label)
            return True, []
        # Aging leaves centres and spreads as they are, so these activations
        # also drive the insertion gate.
        acts = self._activations(x)
        self.lifespan += 1
        self.activity += acts
        inserted = self._should_insert(acts, confidence)
        if inserted:
            self._insert(x)
        else:
            self._tune(int(acts.argmax()), x)
        pruned = self.prune_inactive()
        if label is not None:
            # The winner is taken again: the step above moved the mixture.
            self._observe_label(x, label)
        return inserted, pruned
