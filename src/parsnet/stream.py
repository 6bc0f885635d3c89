"""Scenario construction, the per-sample training loop, and prequential runs.

A scenario is a fixed sequence of batches whose training labels have been
withheld according to a policy (a sporadic fraction per batch, or labels in
the first batch only); the ground truth stays available for scoring.  The
learner wires the four learning pieces together per sample: a generative
step with structural checks on every sample, a mixture update, and either
supervised training (original plus augmented copy, importance bookkeeping,
discriminative structural checks) or an attempted self-labelled step under
the hedge pull.  Evaluation is strictly test-then-train: every batch is
scored with the model state produced by the preceding batches only.

Validation contract: input is checked once, at a boundary, before any state
changes, and code past the boundary trusts it; a rejected input raises
``ValueError`` and leaves the learner untouched.  The boundaries are the
scenario builders (one private builder owns the truth check and the class
count), ``normalize_batches`` ("some row is finite"), ``StreamLearner`` (every
option, through :func:`check_options`, which the command line calls too),
``prequential_run`` (every batch's truth, labels and alignment, before it
predicts the first), ``train_on_batch`` (its shapes, and its labels through
``_integer_labels``, one vectorised integer and range check; non-finite rows
are skipped and counted) and ``train_on_sample``, the one per-sample check:
:func:`check_label` (``-1``: no label, in every layer), then
:func:`~parsnet.network.check_sample`.  The network's and mixture's
per-sample methods, ``AgmmModel.insert`` among them, check none of it again.
Past the boundaries only these checks stay, each for its own reason:

- each constructor refuses a size or spread it cannot build with, once per object;
- ``predict_batch`` checks its batch, as the boundary of ``StreamLearner.predict``;
- ``prune_nodes`` checks its indexes (integers, in range, not every unit),
  since numpy would read a negative one from the end and cut a unit nobody
  named;
- ``normalized_top2`` refuses fewer than two classes, which have no top-2
  confidence, and ``bias_variance`` names a phase it does not know;
- the fault detectors catch a bug or a diverged run, not bad input:
  ``theta_bounds`` refuses a vector that is no classifier layout,
  ``HedgeState.pull`` a hedge not resized after a structural change, and
  ``insertion_threshold`` a confidence that is not positive (NaN from a
  diverged network).

An unlabelled sample is scored by the network only where the mixture side of
the gate passes or a log is attached; the self-labelled step then passes
``discriminative_step`` that scored sample object, reusing its forward pass.

The learner opens no files.  An optional ``log`` callable receives each
structural check as ``log("check", **fields)`` and each unlabelled sample's
gate decision as ``log("gate", **fields)``, with ``None`` for a confidence or
label that does not exist; attaching one leaves learning unchanged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields

import numpy as np

from .agmm import AgmmModel
from .network import Network, check_sample, normalized_top2
from .plasticity import PhaseMonitor, bias_variance, expected_hidden, prune_candidates
from .slash import HedgeState, ReconScaler, augment, mixture_confidence, propose_label

# Hidden growth stops at MAX_HIDDEN units, a guard against runaway growth and
# not a hyperparameter; pruning waits PRUNE_HOLDOFF samples after the last
# growth (see ``StreamLearner._evolve``).
MAX_HIDDEN = 1024
PRUNE_HOLDOFF = 1000


@dataclass
class Batch:
    """A contiguous chunk of the stream.

    ``labels`` is what the learner may train on (-1 marks a withheld label);
    ``truth`` is the full ground truth used for prequential scoring only.
    """

    features: np.ndarray
    labels: np.ndarray
    truth: np.ndarray


@dataclass
class StreamScenario:
    batches: list[Batch]
    num_classes: int
    label_fraction: float


def check_label(label, n_classes: int) -> None:
    """``ValueError`` unless ``label`` is an integer in ``-1..n_classes - 1``,
    ``-1`` meaning "no label": the learner's check of one label."""
    # type() first: the plain int of a stream's labels skips isinstance.
    if type(label) is not int and not isinstance(label, np.integer):
        raise ValueError(f"label {label!r} is not an integer")
    if not -1 <= label < n_classes:
        raise ValueError(f"label {label} outside -1..{n_classes - 1} (-1 means unlabelled)")


def _integer_labels(labels, count: int | None = None, name: str = "label",
                    low: int = -1) -> np.ndarray:
    """``labels`` as int64, or ``ValueError`` naming, as ``<name> <value>``, the
    first value that is not an integer (a boolean is none, as in
    :func:`check_label`) or the first that lies outside ``low..count - 1``,
    worded for ``low`` -1 as ``check_label`` words it; without ``count`` the
    range is int64's.  A list's items are taken as ``check_label`` takes them,
    so ``[True, 1]`` is refused where an array of it would be cast."""
    labels = np.array(labels, dtype=object) if isinstance(labels, list) else np.asarray(labels)
    kind = labels.dtype.kind
    if kind == "f":
        stray = ~(np.isfinite(labels) & (np.trunc(labels) == labels))
    elif kind == "O":  # Python objects, such as None: integers as check_label takes them
        stray = np.array([type(value) is not int and not isinstance(value, np.integer)
                          for value in labels.flat], dtype=bool).reshape(labels.shape)
    else:
        stray = np.full(labels.shape, kind not in "iu")
    if stray.any():
        raise ValueError(f"{name} {labels[stray][:1].tolist()[0]!r} is not an integer")
    if count is None:  # so that the cast below cannot wrap, as uint64 or float would
        low, count = -2 ** 63, 2 ** 63
    # Compared before the cast, so the message names the value as given.
    stray = np.asarray((labels < low) | (labels >= count), dtype=bool)
    if stray.any():
        meaning = " (-1 means unlabelled)" if low == -1 else ""
        raise ValueError(f"{name} {int(labels[stray][:1].tolist()[0])} outside "
                         f"{low}..{count - 1}{meaning}")
    return labels.astype(np.int64, copy=False)


def as_batches(features: np.ndarray, labels: np.ndarray, batch_size: int) -> list[Batch]:
    """Split arrays into fully labelled batches, keeping the original order.

    The final batch keeps whatever is left over.
    """
    features = np.asarray(features, dtype=float)
    labels = _integer_labels(labels)
    if features.ndim != 2 or features.shape[0] == 0:
        raise ValueError("features must be a non-empty (n, dim) array")
    if labels.shape != (features.shape[0],):
        raise ValueError("labels must align with features")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    out = []
    for start in range(0, features.shape[0], batch_size):
        stop = start + batch_size
        truth = labels[start:stop]
        out.append(Batch(features[start:stop], truth.copy(), truth))
    return out


def make_sporadic(batches: list[Batch], fraction: float,
                  rng: np.random.Generator) -> StreamScenario:
    """Keep exactly ``floor(fraction * n)`` labels per batch, chosen uniformly
    with no regard for the class distribution; ``ValueError`` when that keeps
    no label in any batch."""
    if not 0.0 < fraction < 1.0:
        raise ValueError("label fraction must lie strictly between 0 and 1")
    sizes = [batch.truth.shape[0] for batch in batches]
    if int(fraction * max(sizes)) == 0:
        raise ValueError(f"label fraction {fraction} keeps no label in any batch: "
                         f"the largest holds {max(sizes)} samples")
    return _withhold(batches, [rng.choice(n, size=int(fraction * n), replace=False)
                               for n in sizes])


def make_infinite_delay(batches: list[Batch]) -> StreamScenario:
    """Labels survive only in the first batch; everything after is unlabelled."""
    if len(batches) < 2:
        raise ValueError("infinite delay needs at least two batches")
    return _withhold(batches, [np.arange(batch.truth.shape[0] if index == 0 else 0)
                               for index, batch in enumerate(batches)])


def _withhold(batches: list[Batch], keep: list[np.ndarray]) -> StreamScenario:
    """The scenario in which batch ``k`` keeps the labels at the positions
    ``keep[k]`` and withholds the rest as -1.  It owns the truth check, a
    ``ValueError`` unless every truth is a nonnegative integer, and the class
    count; its ``label_fraction`` is the share of samples that kept a label."""
    truth = _integer_labels(np.concatenate([batch.truth for batch in batches]), name="truth")
    if truth.min() < 0:
        raise ValueError(f"truth {truth[truth < 0][0]} is negative: "
                         "ground-truth labels must be nonnegative")
    masked = []
    for batch, kept in zip(batches, keep):
        labels = np.full(batch.truth.shape[0], -1, dtype=np.int64)
        labels[kept] = batch.truth[kept]
        masked.append(Batch(batch.features, labels, batch.truth))
    share = sum(int(np.count_nonzero(batch.labels >= 0)) for batch in masked) / truth.size
    return StreamScenario(masked, max(int(truth.max()) + 1, 2), share)


def normalize_batches(batches: list[Batch]) -> list[Batch]:
    """Min-max scale every batch by the ranges of the finite rows of the first
    batch that holds one, clipped to [0, 1]; raises ``ValueError`` when no
    batch does.

    Columns that are constant over those rows map to 0, and ``ValueError`` is
    raised when every column is, since every sample would then map to one zero
    row.  A non-finite entry stays as it is, so that :func:`prequential_run`
    skips and counts its row.
    """
    finite = (batch.features[np.isfinite(batch.features).all(axis=1)] for batch in batches)
    first = next((rows for rows in finite if rows.shape[0]), None)
    if first is None:
        raise ValueError("no batch holds a finite row")
    lo = first.min(axis=0)
    span = first.max(axis=0) - lo
    flat = span == 0.0
    if flat.all():
        raise ValueError("every feature is constant over the scaling rows, so all scale to 0")
    safe = np.where(flat, 1.0, span)
    out = []
    for index, batch in enumerate(batches):
        if batch.features.shape[1] != first.shape[1]:
            raise ValueError(
                f"batch {index} has {batch.features.shape[1]} features, "
                f"expected {first.shape[1]}")
        feats = np.clip((batch.features - lo) / safe, 0.0, 1.0)
        feats[:, flat] = 0.0
        np.copyto(feats, batch.features, where=~np.isfinite(batch.features))
        out.append(Batch(feats, batch.labels, batch.truth))
    return out


def option(default, help: str, **extra):
    """A config field that is also the flag and config key of its name.
    ``extra`` may give its ``choices``, valid ``range`` (``"[1, inf)"``) and the
    ``type`` of its text where the default does not show it (``None``, a
    list's items)."""
    if isinstance(default, list):
        return field(default_factory=default.copy, metadata={"help": help, "type": str, **extra})
    return field(default=default, metadata={"help": help, "type": type(default), **extra})


def check_options(config) -> None:
    """Raise ``ValueError``, naming the key, for a value of a dataclass of
    :func:`option` fields that lies outside its option's choices or range, or
    a list that holds an item twice."""
    for entry in fields(config):
        key, value = entry.name, getattr(config, entry.name)
        if "help" not in entry.metadata or value is None:  # None: unset, nothing to check
            continue
        allowed, interval = entry.metadata.get("choices"), entry.metadata.get("range")
        items = value if isinstance(value, list) else [value]
        for item in items:
            if allowed is not None and item not in allowed:
                raise ValueError(f"{key}: {item!r} is not one of {', '.join(allowed)}")
            if interval is not None and not _within(item, interval):
                raise ValueError(f"{key}: {item!r} is outside {interval}")
        if len(set(items)) < len(items):
            raise ValueError(f"{key}: {value!r} repeats an item")


def _within(value, interval: str) -> bool:
    """Whether ``value`` lies in ``interval``, written like ``"[0, 1)"``."""
    low, high = (float(end) for end in interval[1:-1].split(","))
    return ((low <= value if interval[0] == "[" else low < value)
            and (value <= high if interval[-1] == "]" else value < high))


@dataclass
class RunConfig:
    """Options (each an :func:`option`) for one prequential run, plus its
    ``seed``."""

    seed: int = 0
    agmm_conf: float = option(0.55, "mixture top-2 confidence gate for self-labelling",
                              range="[0, 1]")
    net_conf: float = option(0.6, "network top-2 confidence gate", range="[0, 1]")
    init_spread: float = option(0.1, "spread of new mixture components", range="(0, inf)")
    lr_gen: float = option(0.01, "generative learning rate", range="[0, inf)")
    lr_disc: float = option(0.001, "discriminative learning rate", range="[0, inf)")
    mask_frac: float = option(0.1, "masked fraction of input features", range="[0, 1)")
    # agmm: a static unit Gaussian, so growth is one unit at a time; evolve: no
    # hidden-unit structural changes; slash: no pseudo labels, hedge or augmentation.
    ablate: list[str] = option([], "learner piece to switch off (repeatable)",
                               choices=("agmm", "evolve", "slash"))


@dataclass
class RunMetrics:
    """Everything a prequential run reports."""

    batch_accuracy: list[float]
    classification_rate: float
    precision: list[float | None]
    recall: list[float | None]
    hidden_nodes: list[int]
    mixture_sizes: list[int]
    pseudo_trajectory: list[int]
    pseudo_labels: int
    cumulative_seconds: list[float]
    confusion: np.ndarray
    counters: dict[str, int]
    events: list[tuple[int, str]] = field(default_factory=list)

    def signature(self) -> tuple:
        """Deterministic content for reproducibility checks (wall time excluded)."""
        return (
            tuple(self.batch_accuracy),
            self.classification_rate,
            tuple(self.precision),
            tuple(self.recall),
            tuple(self.hidden_nodes),
            tuple(self.mixture_sizes),
            tuple(self.pseudo_trajectory),
            self.pseudo_labels,
            self.confusion.tobytes(),
            tuple(sorted(self.counters.items())),
            tuple(self.events),
        )


def precision_recall(confusion: np.ndarray):
    """Per-class precision/recall from a confusion matrix (rows = truth).

    Classes that were never predicted (or never occurred) get ``None``
    instead of a fake zero.
    """
    hits = np.diag(confusion)
    precision, recall = ([float(hit / total) if total else None
                          for hit, total in zip(hits, confusion.sum(axis=axis))]
                         for axis in (0, 1))
    return precision, recall


class StreamLearner:
    """The full online model bundle, trained one sample at a time; a ``config``
    that :func:`check_options` rejects raises before any state exists."""

    def __init__(self, n_inputs: int, n_classes: int, config: RunConfig, log=None):
        check_options(config)
        self.config = config
        self.log = log
        self.rng = np.random.default_rng(config.seed)
        self.net = Network(n_inputs, n_classes, 1, self.rng)  # one unit: growth adds the rest
        if "agmm" in config.ablate:
            # Frozen stand-in: one standard-normal component, never updated,
            # never labelled, so growth falls back to one unit at a time and
            # self-labelling stays silent.
            self.mixture = AgmmModel(n_inputs, n_classes, init_spread=1.0)
            self.mixture.insert(np.zeros(n_inputs))
        else:
            self.mixture = AgmmModel(n_inputs, n_classes, init_spread=config.init_spread)
        self.gen_monitor = PhaseMonitor()
        self.disc_monitor = PhaseMonitor()
        self.hedge = HedgeState(self.net.theta())
        self.scaler = ReconScaler()
        self._last_growth = -(10 ** 9)
        self.counters = {"samples": 0, "skipped": 0, "gen_steps": 0,
                         "disc_label_steps": 0, "disc_aug_steps": 0,
                         "disc_pseudo_steps": 0}
        self.events: list[tuple[int, str]] = []
        self._eye = np.eye(n_classes)

    # -- inference -----------------------------------------------------------

    def predict(self, features: np.ndarray) -> np.ndarray:
        return np.argmax(self.net.predict_batch(features), axis=1)

    # -- training ------------------------------------------------------------

    def _evolve(self, monitor: PhaseMonitor, target: np.ndarray, phase: str) -> None:
        """One bias/variance structural check for the given phase.

        A firing grow trigger suppresses the prune check for the same sample,
        and pruning can only act once the post-growth hold-off has elapsed:
        fresh units inflate the variance statistics for a while, and acting on
        that inflation would cut the very capacity that was just added.  The
        ``evolve`` ablation suppresses the structural actions but keeps the
        statistics (and the confidence level the mixture consumes) flowing.
        """
        cfg, sample = self.config, self.counters["samples"]
        e_hidden = expected_hidden(self.net, self.mixture)
        bias_sq, variance = bias_variance(e_hidden, target, self.net, phase)
        if monitor.observe_bias(bias_sq):
            if "evolve" not in cfg.ablate and self.net.n_hidden < MAX_HIDDEN:
                # add_nodes rebinds params, so it runs before params is read.
                carried = self.net.add_nodes(self.mixture.size, self.rng)
                self.hedge.grow_hidden(self.net.params, carried)
                self.events.append((sample, "node_grow"))
                self._last_growth = sample
        elif monitor.observe_variance(variance) and "evolve" not in cfg.ablate:
            settled = sample - self._last_growth >= PRUNE_HOLDOFF
            doomed = prune_candidates(e_hidden) if settled else []
            if doomed:
                self.hedge.prune_hidden(self.net.prune_nodes(doomed))
                self.events.append((sample, "node_prune"))
        if self.log is not None:
            self.log("check", sample=sample, phase=phase, bias_sq=bias_sq, variance=variance,
                     bias_level=monitor.bias_level, var_level=monitor.var_level,
                     hidden=self.net.n_hidden, components=self.mixture.size)

    def train_on_sample(self, x: np.ndarray, label: int) -> None:
        """Single-pass treatment of one sample (label -1 means unlabelled).

        Raises ``ValueError``, before any state changes, for a sample that is
        not a finite vector of ``n_inputs`` features or a label that is not an
        integer in ``-1..n_classes - 1``.
        """
        check_label(label, self.net.n_classes)
        x = check_sample(x, self.net.n_inputs)  # the one array that every step below reads
        cfg, counters = self.config, self.counters

        # Generative phase: every sample, masked input, clean target.
        recon_error = self.net.generative_step(x, cfg.lr_gen, cfg.mask_frac, self.rng)
        counters["samples"] += 1
        counters["gen_steps"] += 1
        hedge_strength = self.scaler.rescale(recon_error)
        if self.mixture.size:
            self._evolve(self.gen_monitor, x, "generative")

        # Mixture update consumes the freshest bias confidence level.
        if "agmm" not in cfg.ablate:
            inserted, pruned = self.mixture.update(x, self.gen_monitor.bias_level, label)
            if inserted:
                self.events.append((counters["samples"], "mixture_insert"))
            if pruned:
                self.events.append((counters["samples"], "mixture_prune"))

        if label >= 0:
            target = self._eye[label]
            grads = self.net.discriminative_step(x, target, cfg.lr_disc)
            counters["disc_label_steps"] += 1
            if "slash" not in cfg.ablate:
                self.hedge.record_step(cfg.lr_disc, grads)
                jittered = augment(x, self.rng)
                grads = self.net.discriminative_step(jittered, target, cfg.lr_disc)
                counters["disc_aug_steps"] += 1
                self.hedge.record_step(cfg.lr_disc, grads)
                self.hedge.set_anchor(self.net.params)
            # Structural checks run on originally labelled samples only.
            self._evolve(self.disc_monitor, target, "discriminative")
        elif "slash" not in cfg.ablate:
            agmm_probs = self.mixture.class_posterior(x)
            agmm_conf = mixture_confidence(agmm_probs, cfg.agmm_conf)
            # Scored only where the mixture side can pass, or for the log.
            net_probs = (self.net.predict_proba(x) if self.log is not None
                         or agmm_conf is not None else None)
            pseudo, reason = propose_label(net_probs, agmm_probs, agmm_conf, cfg.net_conf)
            if pseudo is not None:
                addend = self.hedge.pull(self.net.params, hedge_strength)
                self.net.discriminative_step(x, self._eye[pseudo], cfg.lr_disc,
                                             grad_addend=addend)
                counters["disc_pseudo_steps"] += 1
            if self.log is not None:
                self.log("gate", sample=counters["samples"], decision=reason,
                         net_confidence=normalized_top2(net_probs),
                         agmm_confidence=(normalized_top2(agmm_probs)
                                          if agmm_probs is not None else None),
                         label=pseudo, hedge_strength=hedge_strength)

    def train_on_batch(self, features: np.ndarray, labels: np.ndarray) -> None:
        """Train over a batch in arrival order; non-finite samples are skipped
        and counted.

        Raises ``ValueError``, before any sample is trained on, when the
        shapes do not match the learner or any label is not an integer in
        ``-1..n_classes - 1``.
        """
        features = np.asarray(features, dtype=float)
        labels = _integer_labels(labels, self.net.n_classes)
        if features.ndim != 2 or features.shape[1] != self.net.n_inputs:
            raise ValueError(
                f"expected features of shape (n, {self.net.n_inputs}), got {features.shape}")
        if labels.shape != (features.shape[0],):
            raise ValueError("labels must align with features")
        finite = np.isfinite(features).all(axis=1)
        for x, label, ok in zip(features, labels.tolist(), finite.tolist()):
            if not ok:
                self.counters["skipped"] += 1
                continue
            self.train_on_sample(x, label)


def prequential_run(config: RunConfig, scenario: StreamScenario, log=None) -> RunMetrics:
    """Test-then-train over every batch exactly once, logging to ``log``.  A row
    with a non-finite feature is left out of prediction, scoring and training
    and counted once as ``skipped``; a batch of such rows adds no per-batch
    entry, and a stream of them raises ``ValueError``.

    Before the first batch is predicted, ``ValueError`` names a truth that is
    not an integer in ``0..num_classes - 1``, a training label that is not
    one in ``-1..num_classes - 1``, or a batch whose labels or truth do not
    align with its features; a truth of whole-number floats is scored as its
    integers."""
    batches = normalize_batches(scenario.batches)
    n_classes = scenario.num_classes
    truths, labels = [], []
    for index, batch in enumerate(batches):
        truths.append(_integer_labels(batch.truth, n_classes, "truth", low=0))
        labels.append(_integer_labels(batch.labels, n_classes))
        if not truths[-1].shape == labels[-1].shape == batch.features.shape[:1]:
            raise ValueError(f"batch {index}: labels and truth must align with its features")
    learner = StreamLearner(batches[0].features.shape[1], n_classes, config, log)
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    batch_accuracy, hidden, sizes, pseudo, cumtime = [], [], [], [], []
    started = time.perf_counter()
    for index, batch in enumerate(batches):
        finite = np.isfinite(batch.features).all(axis=1)
        learner.counters["skipped"] += finite.size - int(np.count_nonzero(finite))
        features, truth = batch.features[finite], truths[index][finite]
        if not truth.size:
            continue
        predictions = learner.predict(features)
        batch_accuracy.append(float(np.mean(predictions == truth)))
        np.add.at(confusion, (truth, predictions), 1)
        learner.train_on_batch(features, labels[index][finite])
        hidden.append(learner.net.n_hidden)
        sizes.append(learner.mixture.size)
        pseudo.append(learner.counters["disc_pseudo_steps"])
        cumtime.append(time.perf_counter() - started)
    precision, recall = precision_recall(confusion)
    return RunMetrics(
        batch_accuracy=batch_accuracy,
        classification_rate=float(np.mean(batch_accuracy)),
        precision=precision,
        recall=recall,
        hidden_nodes=hidden,
        mixture_sizes=sizes,
        pseudo_trajectory=pseudo,
        pseudo_labels=learner.counters["disc_pseudo_steps"],
        cumulative_seconds=cumtime,
        confusion=confusion,
        counters=dict(learner.counters),
        events=list(learner.events),
    )
