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

Validation contract: each public entry point checks its input once, before
any state changes, and private helpers trust their input.  ``train_on_batch``
checks the shapes and every label of a batch up front and finds its
non-finite rows with one vectorised mask (those rows are skipped and
counted); ``train_on_sample`` checks its label, and its sample with the
shared :func:`~parsnet.network.check_sample`.  A rejected input raises
``ValueError`` and leaves the learner untouched.  The network and mixture
methods the learner calls are entry points of their own modules and keep
their own single checks.

An unlabelled sample is scored by the network only where the mixture side of
the gate passes or an audit log is open; the self-labelled step then passes
``discriminative_step`` that scored sample object, reusing its forward pass.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field

import numpy as np

from .agmm import AgmmModel, NoClassEvidenceError
from .network import LOSSES, Network, check_sample, normalized_top2
from .plasticity import PhaseMonitor, bias_variance, expected_hidden, prune_candidates
from .slash import (AUGMENT_NOISE_STD, HedgeState, ReconScaler, augment,
                    mixture_confidence, propose_label)


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
    policy: str
    label_fraction: float


def as_batches(features: np.ndarray, labels: np.ndarray, batch_size: int) -> list[Batch]:
    """Split arrays into fully labelled batches, keeping the original order.

    The final batch keeps whatever is left over.
    """
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=np.int64)
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
    with no regard for the class distribution."""
    if not 0.0 < fraction < 1.0:
        raise ValueError("label fraction must lie strictly between 0 and 1")
    masked = []
    for batch in batches:
        n = batch.truth.shape[0]
        keep = rng.choice(n, size=int(fraction * n), replace=False)
        labels = np.full(n, -1, dtype=np.int64)
        labels[keep] = batch.truth[keep]
        masked.append(Batch(batch.features, labels, batch.truth))
    return StreamScenario(masked, _class_count(batches), "sporadic", fraction)


def make_infinite_delay(batches: list[Batch]) -> StreamScenario:
    """Labels survive only in the first batch; everything after is unlabelled."""
    if len(batches) < 2:
        raise ValueError("infinite delay needs at least two batches")
    masked = [Batch(batches[0].features, batches[0].truth.copy(), batches[0].truth)]
    for batch in batches[1:]:
        masked.append(Batch(batch.features,
                            np.full(batch.truth.shape[0], -1, dtype=np.int64),
                            batch.truth))
    total = sum(b.truth.shape[0] for b in batches)
    return StreamScenario(masked, _class_count(batches), "infinite_delay",
                          batches[0].truth.shape[0] / total)


def _class_count(batches: list[Batch]) -> int:
    top = max(int(b.truth.max()) for b in batches)
    low = min(int(b.truth.min()) for b in batches)
    if low < 0:
        raise ValueError("ground-truth labels must be nonnegative")
    return max(top + 1, 2)


def normalize_batches(batches: list[Batch]) -> list[Batch]:
    """Min-max scale every batch by the first batch's ranges, clipped to [0, 1].

    Columns that are constant in the first batch map to 0.
    """
    first = batches[0].features
    lo = first.min(axis=0)
    span = first.max(axis=0) - lo
    flat = span == 0.0
    safe = np.where(flat, 1.0, span)
    out = []
    for index, batch in enumerate(batches):
        if batch.features.shape[1] != first.shape[1]:
            raise ValueError(
                f"batch {index} has {batch.features.shape[1]} features, "
                f"expected {first.shape[1]}")
        feats = np.clip((batch.features - lo) / safe, 0.0, 1.0)
        if flat.any():
            feats[:, flat] = 0.0
        out.append(Batch(feats, batch.labels, batch.truth))
    return out


def option(default, help: str, **extra):
    """A config field that is also a flag and config key.  ``extra`` may give
    its ``choices``, valid ``range`` (``"[1, inf)"``), ``key`` where that is not
    the field name, the ``type`` of its text where the default does not show
    it (``None``, a list's items) and an argparse ``action``."""
    if isinstance(default, list):
        return field(default_factory=default.copy, metadata={"help": help, "type": str, **extra})
    return field(default=default, metadata={"help": help, "type": type(default), **extra})


@dataclass
class RunConfig:
    """Hyperparameters (each an :func:`option`) and toggles for one prequential run."""

    seed: int = 0
    agmm_conf: float = option(0.55, "mixture top-2 confidence gate for self-labelling")
    net_conf: float = option(0.6, "network top-2 confidence gate")
    init_spread: float = option(0.1, "spread of new mixture components", range="(0, inf)")
    lr_gen: float = option(0.01, "generative learning rate", range="[0, inf)")
    lr_disc: float = option(0.001, "discriminative learning rate", range="[0, inf)")
    # NS stays squared-error whatever the classifier loss.
    loss: str = option("cross_entropy", "classifier training loss", choices=LOSSES)
    mask_fraction: float = option(0.1, "masked fraction of input features",
                                  key="mask_frac", range="[0, 1)")
    prune_grace: int = option(40, "mixture pruning grace period")
    hedge_eps: float = option(1e-8, "importance division guard", range="(0, inf)")
    init_nodes: int = option(1, "initial hidden units", range="[1, inf)")
    max_hidden: int = option(1024, "hard cap on hidden growth (plumbing guard)")
    prune_holdoff: int = option(1000, "samples after hidden growth before pruning may act")
    augment_mode: str = option("tabular", "noise level of the augmented labelled copy",
                               choices=tuple(AUGMENT_NOISE_STD))
    agmm_off: bool = False       # ablation: static unit Gaussian, one-at-a-time growth
    evolve_off: bool = False     # ablation: no hidden-unit structural changes
    slash_off: bool = False      # ablation: no pseudo labels, no hedge, no augmentation
    freeze_after_first: bool = False  # baseline: stop all training after the first batch
    trace_path: str | None = None
    audit_path: str | None = None


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
    train_seconds: float
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
    """The full online model bundle, trained one sample at a time."""

    def __init__(self, n_inputs: int, n_classes: int, config: RunConfig):
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self.net = Network(n_inputs, n_classes, config.init_nodes, self.rng,
                           loss=config.loss)
        if config.agmm_off:
            # Frozen stand-in: one standard-normal component, never updated,
            # never labelled, so growth falls back to one unit at a time and
            # self-labelling stays silent.
            self.mixture = AgmmModel(n_inputs, n_classes, init_spread=1.0,
                                     prune_grace=config.prune_grace)
            self.mixture.insert(np.zeros(n_inputs))
        else:
            self.mixture = AgmmModel(n_inputs, n_classes,
                                     init_spread=config.init_spread,
                                     prune_grace=config.prune_grace)
        self.gen_monitor = PhaseMonitor()
        self.disc_monitor = PhaseMonitor()
        self.hedge = HedgeState.for_network(self.net, config.hedge_eps)
        self.scaler = ReconScaler()
        self.pseudo_count = 0
        self.samples_seen = 0
        self._last_growth = -(10 ** 9)
        self.counters = {"samples": 0, "skipped": 0, "gen_steps": 0,
                         "disc_label_steps": 0, "disc_aug_steps": 0,
                         "disc_pseudo_steps": 0}
        self.events: list[tuple[int, str]] = []
        self._eye = np.eye(n_classes)
        self._trace = open(config.trace_path, "w", newline="") if config.trace_path else None
        self._trace_csv = csv.writer(self._trace) if self._trace else None
        if self._trace_csv:
            self._trace_csv.writerow(["sample", "phase", "bias_sq", "variance",
                                      "bias_level", "var_level", "hidden", "components"])
        self._audit = open(config.audit_path, "w", newline="") if config.audit_path else None
        self._audit_csv = csv.writer(self._audit) if self._audit else None
        if self._audit_csv:
            self._audit_csv.writerow(["sample", "decision", "net_confidence",
                                      "agmm_confidence", "label", "hedge_strength"])

    def close(self) -> None:
        for handle in (self._trace, self._audit):
            if handle:
                handle.close()
        self._trace = self._audit = None

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
        ablation toggle suppresses the structural actions but keeps the
        statistics (and the confidence level the mixture consumes) flowing.
        """
        cfg = self.config
        e_hidden = expected_hidden(self.net, self.mixture)
        bias_sq, variance = bias_variance(e_hidden, target, self.net, phase)
        if monitor.observe_bias(bias_sq):
            if not cfg.evolve_off and self.net.n_hidden < cfg.max_hidden:
                self.net.add_nodes(self.mixture.size, self.rng)
                self.hedge.grow_hidden(self.net.params)
                self.events.append((self.samples_seen, "node_grow"))
                self._last_growth = self.samples_seen
        elif monitor.observe_variance(variance) and not cfg.evolve_off:
            settled = self.samples_seen - self._last_growth >= cfg.prune_holdoff
            doomed = prune_candidates(e_hidden) if settled else []
            if doomed:
                self.hedge.prune_hidden(self.net.prune_nodes(doomed))
                self.events.append((self.samples_seen, "node_prune"))
        if self._trace_csv:
            self._trace_csv.writerow([self.samples_seen, phase, bias_sq, variance,
                                      monitor.bias_level, monitor.var_level,
                                      self.net.n_hidden, self.mixture.size])

    def _check_label(self, label: int) -> None:
        if not -1 <= label < self.net.n_classes:
            raise ValueError(
                f"label {label} outside -1..{self.net.n_classes - 1} (-1 means unlabelled)")

    def train_on_sample(self, x: np.ndarray, label: int) -> None:
        """Single-pass treatment of one sample (label -1 means unlabelled).

        Raises ``ValueError``, before any state changes, for a sample that is
        not a finite vector of ``n_inputs`` features or a label outside
        ``-1..n_classes - 1``.
        """
        x = check_sample(x, self.net.n_inputs)
        self._check_label(label)
        cfg = self.config
        self.samples_seen += 1
        self.counters["samples"] += 1

        # Generative phase: every sample, masked input, clean target.
        recon_error = self.net.generative_step(x, cfg.lr_gen, cfg.mask_fraction, self.rng)
        self.counters["gen_steps"] += 1
        hedge_strength = self.scaler.rescale(recon_error)
        if self.mixture.size:
            self._evolve(self.gen_monitor, x, "generative")

        # Mixture update consumes the freshest bias confidence level.
        if not cfg.agmm_off:
            inserted, pruned = self.mixture.update(
                x, self.gen_monitor.bias_level, label if label >= 0 else None)
            if inserted:
                self.events.append((self.samples_seen, "mixture_insert"))
            if pruned:
                self.events.append((self.samples_seen, "mixture_prune"))

        if label >= 0:
            target = self._eye[label]
            _, grads = self.net.discriminative_step(x, target, cfg.lr_disc)
            self.counters["disc_label_steps"] += 1
            if not cfg.slash_off:
                self.hedge.record_step(cfg.lr_disc, grads)
                jittered, same = augment(x, label, self.rng, cfg.augment_mode)
                _, grads = self.net.discriminative_step(jittered, self._eye[same], cfg.lr_disc)
                self.counters["disc_aug_steps"] += 1
                self.hedge.record_step(cfg.lr_disc, grads)
                self.hedge.set_anchor(self.net.params)
            # Structural checks run on originally labelled samples only.
            if self.mixture.size:
                self._evolve(self.disc_monitor, target, "discriminative")
        elif not cfg.slash_off:
            self.hedge.refresh_importance()
            agmm_probs = None
            if self.mixture.size:
                try:
                    agmm_probs = self.mixture.class_posterior(x)
                except NoClassEvidenceError:
                    pass
            # Scored only where the mixture side can pass, or for the audit log.
            net_probs = (self.net.predict_proba(x) if self._audit_csv
                         or mixture_confidence(agmm_probs, cfg.agmm_conf) is not None else None)
            pseudo, reason = propose_label(net_probs, agmm_probs,
                                           cfg.agmm_conf, cfg.net_conf)
            if pseudo is not None:
                addend = self.hedge.pull(self.net.params, hedge_strength)
                self.net.discriminative_step(x, self._eye[pseudo.label], cfg.lr_disc,
                                             grad_addend=addend)
                self.pseudo_count += 1
                self.counters["disc_pseudo_steps"] += 1
            if self._audit_csv:
                self._audit_csv.writerow([
                    self.samples_seen, reason, normalized_top2(net_probs),
                    normalized_top2(agmm_probs) if agmm_probs is not None else "",
                    pseudo.label if pseudo is not None else "", hedge_strength])

    def train_on_batch(self, features: np.ndarray, labels: np.ndarray) -> dict:
        """Train over a batch in arrival order; non-finite samples are skipped
        and counted.

        Raises ``ValueError``, before any sample is trained on, when the
        shapes do not match the learner or any label lies outside
        ``-1..n_classes - 1``.
        """
        features = np.asarray(features, dtype=float)
        labels = np.asarray(labels, dtype=np.int64)
        if features.ndim != 2 or features.shape[1] != self.net.n_inputs:
            raise ValueError(
                f"expected features of shape (n, {self.net.n_inputs}), got {features.shape}")
        if labels.shape != (features.shape[0],):
            raise ValueError("labels must align with features")
        if labels.size:
            self._check_label(int(labels.min()))
            self._check_label(int(labels.max()))
        finite = np.isfinite(features).all(axis=1)
        for x, label, ok in zip(features, labels.tolist(), finite.tolist()):
            if not ok:
                self.counters["skipped"] += 1
                continue
            self.train_on_sample(x, label)
        return {
            "hidden_nodes": self.net.n_hidden,
            "mixture_size": self.mixture.size,
            "pseudo_total": self.pseudo_count,
            "skipped": self.counters["skipped"],
        }


def prequential_run(config: RunConfig, scenario: StreamScenario) -> RunMetrics:
    """Test-then-train over every batch exactly once.  A row with a non-finite
    feature is left out of prediction, scoring and training and counted once as
    ``skipped``; a batch of such rows adds no per-batch entry, and a stream of
    them raises ``ValueError``."""
    batches = normalize_batches(scenario.batches)
    n_inputs = batches[0].features.shape[1]
    learner = StreamLearner(n_inputs, scenario.num_classes, config)
    confusion = np.zeros((scenario.num_classes, scenario.num_classes), dtype=np.int64)
    batch_accuracy, hidden, sizes, pseudo, cumtime = [], [], [], [], []
    started = time.perf_counter()
    try:
        for index, batch in enumerate(batches):
            finite = np.isfinite(batch.features).all(axis=1)
            learner.counters["skipped"] += finite.size - int(np.count_nonzero(finite))
            features, truth = batch.features[finite], batch.truth[finite]
            if not truth.size:
                continue
            predictions = learner.predict(features)
            batch_accuracy.append(float(np.mean(predictions == truth)))
            np.add.at(confusion, (truth, predictions), 1)
            if not (config.freeze_after_first and index >= 1):
                learner.train_on_batch(features, batch.labels[finite])
            hidden.append(learner.net.n_hidden)
            sizes.append(learner.mixture.size)
            pseudo.append(learner.pseudo_count)
            cumtime.append(time.perf_counter() - started)
        if not cumtime:
            raise ValueError("no batch holds a finite row")
    finally:
        learner.close()
    precision, recall = precision_recall(confusion)
    return RunMetrics(
        batch_accuracy=batch_accuracy,
        classification_rate=float(np.mean(batch_accuracy)),
        precision=precision,
        recall=recall,
        hidden_nodes=hidden,
        mixture_sizes=sizes,
        pseudo_trajectory=pseudo,
        pseudo_labels=learner.pseudo_count,
        train_seconds=cumtime[-1],
        cumulative_seconds=cumtime,
        confusion=confusion,
        counters=dict(learner.counters),
        events=list(learner.events),
    )
