import csv
import dataclasses
import pathlib
import pickle

import numpy as np
import pytest

from parsnet.cli import gen_sea
from parsnet.stream import (Batch, RunConfig, StreamLearner, as_batches,
                            make_infinite_delay, make_sporadic,
                            normalize_batches, precision_recall,
                            prequential_run)

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def blob_batches(n_batches=6, size=200, shift_at=None, shift=(0.0, 0.0), seed=0):
    """Two-class 2-D Gaussian blobs; optionally all means jump mid-stream."""
    rng = np.random.default_rng(seed)
    means = np.array([[0.2, 0.2], [0.8, 0.8]])
    batches = []
    for k in range(n_batches):
        labels = rng.integers(0, 2, size=size)
        offset = np.asarray(shift) if shift_at is not None and k >= shift_at else 0.0
        feats = means[labels] + offset + rng.normal(0.0, 0.08, (size, 2))
        batches.append(Batch(feats, labels.copy(), labels))
    return batches


# -- batching and scenarios ------------------------------------------------------

def test_as_batches_shapes_and_tail():
    feats = np.arange(25.0).reshape(5, 5)
    labels = np.arange(5)
    batches = as_batches(feats, labels, batch_size=2)
    assert [b.features.shape[0] for b in batches] == [2, 2, 1]
    assert np.array_equal(batches[-1].truth, [4])


def test_as_batches_validates():
    with pytest.raises(ValueError):
        as_batches(np.empty((0, 3)), np.empty(0, dtype=int), 10)
    with pytest.raises(ValueError):
        as_batches(np.ones((4, 2)), np.ones(3, dtype=int), 2)


def test_sporadic_keeps_exact_label_count():
    batches = blob_batches(size=1000)
    scenario = make_sporadic(batches, 0.5, np.random.default_rng(0))
    for batch in scenario.batches:
        assert int((batch.labels >= 0).sum()) == 500
        kept = batch.labels >= 0
        assert np.array_equal(batch.labels[kept], batch.truth[kept])


def test_sporadic_floor_arithmetic():
    batches = blob_batches(size=333)
    scenario = make_sporadic(batches, 0.25, np.random.default_rng(0))
    assert int((scenario.batches[0].labels >= 0).sum()) == 83


def test_sporadic_same_seed_same_mask():
    batches = blob_batches()
    one = make_sporadic(batches, 0.5, np.random.default_rng(9))
    two = make_sporadic(batches, 0.5, np.random.default_rng(9))
    for a, b in zip(one.batches, two.batches):
        assert np.array_equal(a.labels, b.labels)


def test_sporadic_validates_fraction():
    with pytest.raises(ValueError):
        make_sporadic(blob_batches(), 1.0, np.random.default_rng(0))


def test_infinite_delay_strips_all_but_first():
    batches = blob_batches(n_batches=4, size=100)
    scenario = make_infinite_delay(batches)
    assert np.array_equal(scenario.batches[0].labels, scenario.batches[0].truth)
    for batch in scenario.batches[1:]:
        assert int((batch.labels >= 0).sum()) == 0
    assert scenario.label_fraction == pytest.approx(0.25)


def test_infinite_delay_two_batches_minimum():
    batches = blob_batches(n_batches=2)
    assert make_infinite_delay(batches).policy == "infinite_delay"
    with pytest.raises(ValueError):
        make_infinite_delay(batches[:1])


def test_infinite_delay_small_label_share():
    batches = blob_batches(n_batches=120, size=100)
    scenario = make_infinite_delay(batches)
    assert scenario.label_fraction == pytest.approx(1.0 / 120.0)


# -- normalization ------------------------------------------------------------------

def test_normalize_uses_first_batch_ranges():
    first = Batch(np.array([[0.0, 10.0], [4.0, 20.0]]), np.zeros(2, int), np.zeros(2, int))
    later = Batch(np.array([[2.0, 15.0], [8.0, 25.0]]), np.zeros(2, int), np.zeros(2, int))
    normed = normalize_batches([first, later])
    assert np.allclose(normed[0].features, [[0.0, 0.0], [1.0, 1.0]])
    assert np.allclose(normed[1].features, [[0.5, 0.5], [1.0, 1.0]])  # clipped


def test_normalize_constant_column_maps_to_zero():
    first = Batch(np.array([[3.0, 1.0], [3.0, 2.0]]), np.zeros(2, int), np.zeros(2, int))
    normed = normalize_batches([first])
    assert normed[0].features[:, 0] == pytest.approx([0.0, 0.0])


# -- metrics ---------------------------------------------------------------------------

def test_precision_recall_perfect():
    confusion = np.diag([7, 5, 3])
    precision, recall = precision_recall(confusion)
    assert precision == [1.0, 1.0, 1.0]
    assert recall == [1.0, 1.0, 1.0]


def test_precision_recall_degenerate_predictor():
    # everything predicted as class 0 in a 2-class problem
    confusion = np.array([[6, 0], [4, 0]])
    precision, recall = precision_recall(confusion)
    assert precision[0] == pytest.approx(0.6)
    assert precision[1] is None  # class 1 never predicted: undefined, not zero
    assert recall == [pytest.approx(1.0), pytest.approx(0.0)]


def test_precision_recall_hand_case():
    confusion = np.array([[3, 1], [1, 3]])
    precision, recall = precision_recall(confusion)
    assert precision == [pytest.approx(0.75)] * 2
    assert recall == [pytest.approx(0.75)] * 2


# -- prequential protocol ------------------------------------------------------------------

def test_untrained_model_predicts_at_chance():
    rng = np.random.default_rng(0)
    learner = StreamLearner(4, 2, RunConfig(seed=0))
    feats = rng.random((2000, 4))
    truth = rng.integers(0, 2, 2000)
    accuracy = float(np.mean(learner.predict(feats) == truth))
    assert 0.4 <= accuracy <= 0.6


def test_prequential_scores_before_training():
    # two identical batches: the second must score far better than the
    # first, and the first is scored by a model that never saw any data.
    # A fast learning rate makes the ordering visible within one batch.
    batches = blob_batches(n_batches=1, size=400, seed=3)
    twice = [batches[0], Batch(batches[0].features, batches[0].labels.copy(),
                               batches[0].truth)]
    scenario = make_sporadic(twice, 0.5, np.random.default_rng(0))
    metrics = prequential_run(RunConfig(seed=1, lr_disc=0.05), scenario)
    assert metrics.batch_accuracy[0] <= 0.65  # chance-ish: model untrained
    assert metrics.batch_accuracy[1] > metrics.batch_accuracy[0] + 0.2


def test_frozen_after_first_batch_is_constant():
    base = blob_batches(n_batches=1, size=300, seed=5)[0]
    clones = [Batch(base.features, base.labels.copy(), base.truth) for _ in range(4)]
    scenario = make_sporadic(clones, 0.5, np.random.default_rng(0))
    metrics = prequential_run(RunConfig(seed=2, freeze_after_first=True), scenario)
    assert len(set(metrics.batch_accuracy[1:])) == 1
    assert len(set(metrics.hidden_nodes)) == 1


def test_single_pass_counters():
    scenario = make_sporadic(blob_batches(n_batches=5, size=200), 0.5,
                             np.random.default_rng(1))
    labelled = sum(int((b.labels >= 0).sum()) for b in scenario.batches)
    total = sum(b.truth.shape[0] for b in scenario.batches)
    metrics = prequential_run(RunConfig(seed=1), scenario)
    counters = metrics.counters
    assert counters["samples"] == total
    assert counters["gen_steps"] == total
    assert counters["disc_label_steps"] == labelled
    assert counters["disc_aug_steps"] == labelled
    assert counters["disc_pseudo_steps"] == metrics.pseudo_labels
    assert counters["disc_pseudo_steps"] <= total - labelled
    assert counters["skipped"] == 0


def test_invalid_samples_are_skipped_and_counted():
    feats = np.random.default_rng(0).random((50, 3))
    feats[7, 1] = np.nan
    feats[30, 2] = np.inf
    labels = np.zeros(50, dtype=np.int64)
    labels[25:] = 1
    learner = StreamLearner(3, 2, RunConfig(seed=0))
    learner.train_on_batch(feats, labels)
    assert learner.counters["skipped"] == 2
    assert learner.counters["samples"] == 48


def sea_with_nan(row=5, batch=1):
    """``gen_sea(600, seed=1, batch_size=200)`` with one NaN feature."""
    batches = gen_sea(600, seed=1, batch_size=200)
    batches[batch].features[row, 0] = np.nan
    return batches


def without_row(scenario, row=5, batch=1):
    """``scenario`` with one row of one batch taken out."""
    batches = list(scenario.batches)
    cut = batches[batch]
    keep = np.arange(cut.truth.shape[0]) != row
    batches[batch] = Batch(cut.features[keep], cut.labels[keep], cut.truth[keep])
    return dataclasses.replace(scenario, batches=batches)


@pytest.mark.parametrize("frozen", [False, True])
def test_prequential_run_skips_and_counts_a_non_finite_row(frozen):
    config = RunConfig(seed=1, freeze_after_first=frozen)
    scenario = make_sporadic(sea_with_nan(), 0.5, np.random.default_rng(0))
    metrics = prequential_run(config, scenario)
    assert metrics.counters["skipped"] == 1
    # The row is left out of prediction, scoring and training alike: the run
    # is the run of the same stream without that row, but for the count.
    reference = prequential_run(config, without_row(scenario))
    assert reference.counters.pop("skipped") == 0
    metrics.counters.pop("skipped")
    assert metrics.signature() == reference.signature()
    assert int(metrics.confusion.sum()) == 599


def test_prequential_run_leaves_out_a_batch_without_a_finite_row():
    batches = gen_sea(600, seed=1, batch_size=200)
    batches[1].features[:, 2] = np.nan
    metrics = prequential_run(RunConfig(seed=1), make_infinite_delay(batches))
    assert metrics.counters["skipped"] == 200
    assert metrics.counters["samples"] == 400
    assert len(metrics.batch_accuracy) == len(metrics.hidden_nodes) == 2
    assert len(metrics.cumulative_seconds) == len(metrics.pseudo_trajectory) == 2
    assert int(metrics.confusion.sum()) == 400


def test_prequential_run_without_any_finite_row_raises():
    batches = gen_sea(400, seed=1, batch_size=200)
    for batch in batches:
        batch.features[:, 0] = np.nan
    with pytest.raises(ValueError, match="no batch holds a finite row"):
        prequential_run(RunConfig(seed=1), make_infinite_delay(batches))


def test_predict_still_rejects_non_finite_input():
    learner = StreamLearner(3, 2, RunConfig(seed=0))
    features = np.full((4, 3), 0.5)
    features[2, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        learner.predict(features)


def warmed_learner(**config):
    """A learner that has trained on one mixed batch (mixture and hedge in use)."""
    rng = np.random.default_rng(1)
    learner = StreamLearner(3, 2, RunConfig(seed=0, **config))
    labels = rng.integers(0, 2, 60)
    labels[::3] = -1
    learner.train_on_batch(rng.random((60, 3)), labels)
    return learner


def learner_state(learner):
    """Every parameter, accumulator, counter and the generator state, as bytes."""
    return pickle.dumps(learner.__dict__)


@pytest.mark.parametrize("agmm_off", [False, True])
@pytest.mark.parametrize("bad", [2, 9, -2])
def test_out_of_range_label_rejected_before_any_state_change(bad, agmm_off):
    learner = warmed_learner(agmm_off=agmm_off)
    before = learner_state(learner)
    labels = np.array([0, 1, -1, bad, 0])
    with pytest.raises(ValueError, match=f"label {bad} "):
        learner.train_on_batch(np.full((5, 3), 0.5), labels)
    assert learner_state(learner) == before
    with pytest.raises(ValueError, match=f"label {bad} "):
        learner.train_on_sample(np.full(3, 0.5), bad)
    assert learner_state(learner) == before


@pytest.mark.parametrize("x", [np.array([0.5, np.nan, 0.5]), np.array([0.5, np.inf, 0.5]),
                               np.full(4, 0.5), np.full((1, 3), 0.5)])
def test_bad_sample_rejected_before_counters_move(x):
    learner = warmed_learner()
    before = learner_state(learner)
    with pytest.raises(ValueError):
        learner.train_on_sample(x, 1)
    assert learner_state(learner) == before
    assert learner.counters["samples"] == learner.samples_seen == 60


def test_batch_shape_mismatch_rejected_before_any_state_change():
    learner = warmed_learner()
    before = learner_state(learner)
    with pytest.raises(ValueError):
        learner.train_on_batch(np.full((5, 4), 0.5), np.zeros(5, dtype=np.int64))
    with pytest.raises(ValueError):
        learner.train_on_batch(np.full((5, 3), 0.5), np.zeros(4, dtype=np.int64))
    assert learner_state(learner) == before


def test_seed_determinism_bit_identical():
    batches = blob_batches(n_batches=4, size=250, seed=8)
    runs = []
    for _ in range(2):
        scenario = make_sporadic(batches, 0.5, np.random.default_rng(3))
        runs.append(prequential_run(RunConfig(seed=7), scenario).signature())
    assert runs[0] == runs[1]


def test_different_seeds_differ():
    batches = blob_batches(n_batches=3, size=250, seed=8)
    sigs = []
    for seed in (1, 2):
        scenario = make_sporadic(batches, 0.5, np.random.default_rng(seed))
        sigs.append(prequential_run(RunConfig(seed=seed), scenario).signature())
    assert sigs[0] != sigs[1]


def test_dimension_mismatch_aborts():
    batches = blob_batches(n_batches=2, size=50)
    batches[1] = Batch(np.ones((50, 3)), batches[1].labels, batches[1].truth)
    scenario = make_sporadic(batches, 0.5, np.random.default_rng(0))
    with pytest.raises(ValueError, match="features"):
        prequential_run(RunConfig(seed=0), scenario)


def test_classification_rate_is_batch_mean():
    scenario = make_sporadic(blob_batches(n_batches=5, size=100), 0.5,
                             np.random.default_rng(2))
    metrics = prequential_run(RunConfig(seed=3), scenario)
    assert metrics.classification_rate == pytest.approx(
        float(np.mean(metrics.batch_accuracy)))
    assert int(metrics.confusion.sum()) == 500


# -- ablation structure facts ------------------------------------------------------------

def test_evolution_off_keeps_width_constant():
    scenario = make_sporadic(blob_batches(n_batches=6, size=200), 0.5,
                             np.random.default_rng(4))
    metrics = prequential_run(RunConfig(seed=1, evolve_off=True), scenario)
    assert set(metrics.hidden_nodes) == {1}
    assert not any(kind.startswith("node") for _, kind in metrics.events)


def test_slash_off_emits_no_pseudo_labels():
    scenario = make_infinite_delay(blob_batches(n_batches=6, size=200))
    metrics = prequential_run(RunConfig(seed=1, slash_off=True), scenario)
    assert metrics.pseudo_labels == 0
    assert metrics.counters["disc_aug_steps"] == 0


def test_fully_labelled_stream_has_no_pseudo_labels():
    batches = blob_batches(n_batches=4, size=150)
    scenario_like = make_sporadic(batches, 0.99, np.random.default_rng(0))
    # force every label present: rebuild with full labels
    full = [Batch(b.features, b.truth.copy(), b.truth) for b in batches]
    from parsnet.stream import StreamScenario
    scenario = StreamScenario(full, scenario_like.num_classes, "full", 1.0)
    metrics = prequential_run(RunConfig(seed=1), scenario)
    assert metrics.pseudo_labels == 0


def test_agmm_off_runs_with_static_unit_mixture():
    scenario = make_sporadic(blob_batches(n_batches=5, size=200), 0.5,
                             np.random.default_rng(5))
    metrics = prequential_run(RunConfig(seed=1, agmm_off=True), scenario)
    assert set(metrics.mixture_sizes) == {1}
    assert metrics.pseudo_labels == 0  # frozen mixture never sees labels
    assert not any(kind.startswith("mixture") for _, kind in metrics.events)
    grow_sizes = np.diff([1] + metrics.hidden_nodes)
    assert np.all(grow_sizes[grow_sizes > 0] >= 1)


def test_balanced_uncertain_stream_yields_near_zero_pseudo_labels():
    # a 2-class stream whose mixture posterior hovers at the class prior of
    # one half never clears the confidence gate
    from parsnet.cli import gen_hyperplane
    batches = gen_hyperplane(5000, seed=3)
    scenario = make_sporadic(batches, 0.5, np.random.default_rng(3))
    metrics = prequential_run(RunConfig(seed=3), scenario)
    unlabelled = sum(int((b.labels < 0).sum()) for b in scenario.batches)
    assert metrics.pseudo_labels <= 0.01 * unlabelled


def test_pseudo_labels_fire_on_confident_separable_stream():
    scenario = make_sporadic(blob_batches(n_batches=8, size=250, seed=2), 0.5,
                             np.random.default_rng(6))
    metrics = prequential_run(RunConfig(seed=4), scenario)
    assert metrics.pseudo_labels > 0


# -- drift reactivity -----------------------------------------------------------------------

def shifted_blob_batches(n_batches, size, shift_at, seed):
    """Class-aligned blobs over a thin uniform background; the blob means jump
    roughly nine sigma to the outer diagonal at the shift batch."""
    rng = np.random.default_rng(seed)
    pre = np.array([[0.4, 0.4], [0.6, 0.6]])
    post = np.array([[0.12, 0.12], [0.88, 0.88]])
    batches = []
    for k in range(n_batches):
        labels = rng.integers(0, 2, size=size)
        means = post if k >= shift_at else pre
        feats = means[labels] + rng.normal(0.0, 0.04, (size, 2))
        stray = rng.random(size) < 0.06
        feats[stray] = rng.random((int(stray.sum()), 2))
        batches.append(Batch(feats, labels.copy(), labels))
    return batches


def test_mean_shift_triggers_mixture_insertion_and_growth():
    batches = shifted_blob_batches(n_batches=10, size=200, shift_at=6, seed=7)
    scenario = make_sporadic(batches, 0.5, np.random.default_rng(7))
    metrics = prequential_run(RunConfig(seed=7), scenario)
    shift_sample = 6 * 200
    inserts = [s for s, kind in metrics.events
               if kind == "mixture_insert" and s > shift_sample]
    grows = [s for s, kind in metrics.events
             if kind == "node_grow" and s > shift_sample]
    assert inserts and inserts[0] <= shift_sample + 50
    assert grows and grows[0] <= shift_sample + 2 * 200


# -- trace and audit files -------------------------------------------------------------------

def test_learner_closed_when_a_batch_raises(monkeypatch):
    closed = []

    def boom(self, features, labels):
        raise RuntimeError("induced failure")

    monkeypatch.setattr(StreamLearner, "train_on_batch", boom)
    monkeypatch.setattr(StreamLearner, "close", lambda self: closed.append(self))
    scenario = make_sporadic(blob_batches(n_batches=2), 0.5, np.random.default_rng(0))
    with pytest.raises(RuntimeError, match="induced"):
        prequential_run(RunConfig(seed=0), scenario)
    assert len(closed) == 1


def test_trace_and_audit_files(tmp_path):
    trace = tmp_path / "trace.csv"
    audit = tmp_path / "audit.csv"
    scenario = make_sporadic(blob_batches(n_batches=3, size=100), 0.5,
                             np.random.default_rng(0))
    prequential_run(RunConfig(seed=1, trace_path=str(trace), audit_path=str(audit)),
                    scenario)
    header, *rows = trace.read_text().strip().splitlines()
    assert header.split(",") == ["sample", "phase", "bias_sq", "variance",
                                 "bias_level", "var_level", "hidden", "components"]
    assert len(rows) > 100
    header, *rows = audit.read_text().strip().splitlines()
    assert header.split(",")[:2] == ["sample", "decision"]
    assert len(rows) == 150  # one row per unlabelled sample


@pytest.mark.parametrize("workload", ["sea-delay", "hyperplane-sporadic"])
def test_logs_do_not_change_learning(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # bench imports its siblings by name
    import state_digest
    import workloads

    learners = []
    close = StreamLearner.close

    def capturing_close(self):
        learners.append(self)
        close(self)

    monkeypatch.setattr(StreamLearner, "close", capturing_close)
    (stream,) = workloads.build_streams(workload, seed=1, streams=1)
    audit, trace = tmp_path / "audit.csv", tmp_path / "trace.csv"
    plain = prequential_run(stream.config, stream.scenario)
    logged = prequential_run(dataclasses.replace(stream.config, audit_path=str(audit),
                                                 trace_path=str(trace)), stream.scenario)
    assert logged.signature() == plain.signature()
    assert state_digest.learner_state_digest(learners[1]) == \
        state_digest.learner_state_digest(learners[0])
    with open(audit, newline="") as fh:
        rows = list(csv.DictReader(fh))
    unlabelled = sum(int((batch.labels < 0).sum()) for batch in stream.scenario.batches)
    assert len(rows) == unlabelled
    scored = [row for row in rows if row["agmm_confidence"]]
    assert len(scored) > unlabelled // 2
    # Every row whose mixture posterior exists carries a network confidence,
    # the rows the mixture side rejects included.
    assert all(0.5 <= float(row["net_confidence"]) <= 1.0 for row in scored)
    assert any(float(row["agmm_confidence"]) < stream.config.agmm_conf for row in scored)
