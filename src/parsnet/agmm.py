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

``update``, ``insert`` and ``class_posterior`` trust their sample and label
(``-1``: no label); :mod:`parsnet.stream` states who checks them.
``update`` computes its insertion threshold on entry, through
:func:`insertion_threshold` (the one owner of that formula and of its check
on the confidence), and hands it to ``_should_insert``.

Component rows: :data:`_ROWS` names the per-component arrays, one row per
component, and ``_new_row`` gives a fresh component's entries keyed by those
names, each with its dtype spelt out (the centres take the float dtype of a
checked sample, and an integer ``init_spread`` still gives float spreads).
A new mixture's empty arrays are those entries cut to no row, and
``insert`` and ``prune_inactive`` walk that list by name, so an array
listed there follows every structural change.

Cached class conditionals: ``class_posterior`` needs, per component, the
class frequencies normalised by the component's label total (uniform for a
component that has seen no label; while no component has seen one there is
no class evidence, and the posterior is ``None``).  They depend on
``class_counts`` alone, which changes only when a label is credited or a
component is added or removed, while the posterior is asked for on every
unlabelled sample.  The matrix is therefore kept in ``_conditionals`` and
rebuilt on the next ``class_posterior`` after ``insert``, ``_observe_label``
or a ``prune_inactive`` that removes a component clears it.  Code that writes
``class_counts`` directly must clear it too.  A rebuild divides by the totals
floored at 1, then makes the rows without a label uniform.

One component: its prior weight is ``support / support``, exactly 1.0, and
its scaled likelihood ``exp(log_lik - peak)`` is ``exp(0)``, exactly 1.0 (on
the non-finite-peak fallback the weight is the prior alone), so any blend by
the component weights returns that component's row bit for bit.  While
``centers`` holds one row, ``class_posterior`` therefore scores with row 0 of
the class conditionals, ``_observe_label`` credits row 0, and
:func:`~parsnet.plasticity.expected_hidden` returns its one row, without
likelihoods, priors or activations.

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

from .network import constants

# Variance floor: tuning on a near-constant stream collapses the spread,
# and both activation and likelihood divide by it.
VARIANCE_FLOOR = 1e-8
PROBIT_SCALE = math.pi / 8.0  # of the probit approximation in ``shrunk_centers``
_MINUS_HALF, _FLOOR, _ONE, _PROBIT = constants(-0.5, VARIANCE_FLOOR, 1.0, PROBIT_SCALE)

LOG_2PI = math.log(2.0 * math.pi)

# The per-component arrays, by name; ``AgmmModel._new_row`` gives each one's entry.
_ROWS = ("centers", "spreads", "support", "lifespan", "activity", "class_counts")


def insertion_threshold(dim: int, confidence: float) -> float:
    """Proximity level below which a sample counts as uncovered input space.

    Decays with the input dimension so that high-dimensional streams do not
    insert a component for every sample; ``confidence`` shifts the coverage
    band in the same way a sigma-rule confidence level would.
    """
    if not confidence > 0.0:  # false for NaN too
        raise ValueError(f"insertion_threshold: confidence must be positive, got {confidence}")
    return math.exp(-(dim * confidence) / (4.0 - 2.0 * math.exp(-dim / 20.0)))


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
        for name, row in self._new_row(np.zeros(input_dim)).items():
            setattr(self, name, row[:0])
        self._conditionals = None

    # -- structure ---------------------------------------------------------

    @property
    def size(self) -> int:
        return self.centers.shape[0]

    # -- scoring -----------------------------------------------------------

    def _activations(self, x: np.ndarray) -> np.ndarray:
        """Activation of every component for ``x``.

        A component's activation is its worst per-dimension Gaussian kernel,
        a value in (0, 1] that reaches 1 exactly when ``x`` sits on the
        centre in every dimension.  The winner is the most activated
        component, the first one on a tie.
        """
        z = (x - self.centers) / self.spreads
        return np.exp(_MINUS_HALF * np.maximum.reduce(z * z, axis=1))

    def prior_weights(self) -> np.ndarray:
        """Relative support of each component (sums to 1)."""
        return self.support / sum(self.support.tolist())

    def shrunk_centers(self) -> np.ndarray:
        """Centres over ``sqrt(1 + PROBIT_SCALE * spreads**2)``."""
        return self.centers / np.sqrt(_ONE + _PROBIT * self.spreads ** 2)

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

    def class_posterior(self, x: np.ndarray) -> np.ndarray | None:
        """Class probabilities from per-component label frequency counts.

        Components that have never seen a label contribute a uniform class
        conditional.  ``None`` while no label has been observed anywhere, an
        empty mixture included: the mixture has no class evidence, and the
        caller skips self-labelling.
        """
        conditionals = self._class_conditionals()
        if conditionals is None:
            return None
        # One component weighs exactly 1.0 (see the module docstring).
        scores = (conditionals[0] if self.centers.shape[0] == 1
                  else self._weighted_likelihoods(x).dot(conditionals))
        return scores / np.add.reduce(scores)

    def _class_conditionals(self) -> np.ndarray | None:
        """Per-component class frequencies, cached until ``class_counts`` changes;
        ``None`` while no component has seen a label."""
        if self._conditionals is None:
            totals = np.add.reduce(self.class_counts, axis=1)
            if sum(totals.tolist()) == 0:
                return None
            conditionals = self.class_counts / np.maximum(totals, 1)[:, None]
            conditionals[totals == 0] = 1.0 / self.num_classes
            self._conditionals = conditionals
        return self._conditionals

    # -- adaptation --------------------------------------------------------

    def _new_row(self, x: np.ndarray) -> dict[str, np.ndarray]:
        """A fresh component centred on ``x``: a one-row array for each of :data:`_ROWS`."""
        return {"centers": x[None, :],
                "spreads": np.full((1, self.input_dim), self.init_spread, dtype=float),
                "support": np.ones(1, dtype=np.int64), "lifespan": np.zeros(1, dtype=np.int64),
                "activity": np.zeros(1, dtype=float),
                "class_counts": np.zeros((1, self.num_classes), dtype=np.int64)}

    def insert(self, x: np.ndarray) -> None:
        """Add a component centred on ``x`` with the initial spread."""
        row = self._new_row(x)
        for name in _ROWS:
            setattr(self, name, np.concatenate((getattr(self, name), row[name])))
        self._conditionals = None

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

    def _should_insert(self, acts: np.ndarray, threshold: float) -> bool:
        """Insertion gate: every activation below ``threshold`` (see
        :func:`insertion_threshold`) AND vigilance passes."""
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

    def _observe_label(self, x: np.ndarray, label: int) -> None:
        """Credit ``label`` to the component that wins ``x``."""
        win = 0 if self.centers.shape[0] == 1 else int(self._activations(x).argmax())
        self.class_counts[win, label] += 1
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
        for name in _ROWS:
            setattr(self, name, getattr(self, name)[keep])
        self._conditionals = None
        return removed.tolist()

    def update(self, x: np.ndarray, confidence: float,
               label: int = -1) -> tuple[bool, list[int]]:
        """One full streaming step: age, insert-or-tune, prune, credit ``label`` (-1: none).

        Returns ``(inserted, pruned_indices)`` so callers can log structural
        events.  The very first sample bootstraps the mixture.  ``confidence``
        is checked before any state changes.
        """
        threshold = insertion_threshold(self.input_dim, confidence)
        if self.size == 0:
            self.insert(x)
            inserted, pruned = True, []
        else:
            # Aging leaves centres and spreads as they are, so these activations
            # also drive the insertion gate.
            acts = self._activations(x)
            self.lifespan += 1
            self.activity += acts
            inserted = self._should_insert(acts, threshold)
            if inserted:
                self.insert(x)
            else:
                self._tune(int(acts.argmax()), x)
            pruned = self.prune_inactive()
        if label >= 0:
            # The winner is taken after the step above, which moved the mixture.
            self._observe_label(x, label)
        return inserted, pruned
