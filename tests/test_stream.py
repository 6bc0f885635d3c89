import dataclasses
import math
import pathlib
import pickle
import re
import sys

import numpy as np
import pytest

from parsnet import slash
from parsnet import stream as stream_module
from parsnet.agmm import AgmmModel
from parsnet.cli import gen_sea
from parsnet.network import Network, check_sample, theta_views
from parsnet.stream import (Batch, RunConfig, StreamLearner, StreamScenario, as_batches,
                            check_label, make_infinite_delay, make_sporadic,
                            normalize_batches, precision_recall,
                            prequential_run)

from helpers import drift_stream

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


# An unsigned label beyond int64 is out of range, where the cast would wrap it to -1.
@pytest.mark.parametrize("truth", [[0.4, 1.9, 2.2], [0.0, 1.0, np.nan], [0.0, np.inf, 1.0],
                                   ["0", "1", "2"], np.array([0, 1, 2**64 - 1], dtype=np.uint64)])
def test_as_batches_refuses_a_label_that_is_not_an_integer(truth):
    truth = np.asarray(truth)
    message = ("^label 18446744073709551615 outside " if truth.dtype.kind == "u"
               else "is not an integer$")
    with pytest.raises(ValueError, match=message):
        as_batches(np.ones((3, 2)), truth, 2)


def test_as_batches_takes_whole_float_labels_as_integers():
    (batch,) = as_batches(np.ones((3, 2)), np.array([0.0, 1.0, 2.0]), 3)
    assert batch.truth.dtype == np.int64 and batch.truth.tolist() == [0, 1, 2]


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


# floor(0.3 * 3) is 0, so batches of 3 would train on no label at all.
def test_sporadic_refuses_a_fraction_that_keeps_no_label_in_any_batch():
    batches = gen_sea(3000, seed=99, batch_size=3)
    with pytest.raises(ValueError, match=re.escape(
            "label fraction 0.3 keeps no label in any batch: the largest holds 3 samples")):
        make_sporadic(batches, 0.3, np.random.default_rng(1))
    scenario = make_sporadic(batches, 0.34, np.random.default_rng(1))
    assert scenario.label_fraction == pytest.approx(1 / 3)


def test_infinite_delay_strips_all_but_first():
    batches = blob_batches(n_batches=4, size=100)
    scenario = make_infinite_delay(batches)
    assert np.array_equal(scenario.batches[0].labels, scenario.batches[0].truth)
    for batch in scenario.batches[1:]:
        assert int((batch.labels >= 0).sum()) == 0
    assert scenario.label_fraction == pytest.approx(0.25)


def test_sporadic_reports_the_share_of_samples_that_kept_a_label():
    # 142 batches of 7 keep 3 labels each and the tail batch of 6 keeps 3.
    scenario = make_sporadic(gen_sea(1000, seed=99, batch_size=7), 0.5,
                             np.random.default_rng(1))
    kept = sum(int((batch.labels >= 0).sum()) for batch in scenario.batches)
    assert kept == 429
    assert scenario.label_fraction == pytest.approx(0.429)


def test_infinite_delay_two_batches_minimum():
    batches = blob_batches(n_batches=2)
    assert all((batch.labels == -1).all()
               for batch in make_infinite_delay(batches).batches[1:])
    with pytest.raises(ValueError):
        make_infinite_delay(batches[:1])


@pytest.mark.parametrize("build", [lambda batches: make_sporadic(batches, 0.5,
                                                                 np.random.default_rng(0)),
                                   make_infinite_delay], ids=["sporadic", "infinite_delay"])
def test_scenario_builders_name_a_negative_truth(build):
    batches = as_batches(np.zeros((4, 2)), np.array([0, -5, 1, -7]), 2)
    with pytest.raises(ValueError, match=re.escape(
            "truth -5 is negative: ground-truth labels must be nonnegative")):
        build(batches)


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


def test_normalize_refuses_rows_that_are_constant_in_every_column():
    with pytest.raises(ValueError, match="every feature is constant"):
        normalize_batches(gen_sea(3000, seed=1, batch_size=1))
    twin = Batch(np.array([[3.0, 1.0], [3.0, 1.0]]), np.zeros(2, int), np.zeros(2, int))
    with pytest.raises(ValueError, match="every feature is constant"):
        normalize_batches([twin])


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


def sea_with(value, row=5, batch=1):
    """``gen_sea(600, seed=1, batch_size=200)`` with one feature set to ``value``."""
    batches = gen_sea(600, seed=1, batch_size=200)
    batches[batch].features[row, 0] = value
    return batches


def without_row(scenario, row=5, batch=1):
    """``scenario`` with one row of one batch taken out."""
    batches = list(scenario.batches)
    cut = batches[batch]
    keep = np.arange(cut.truth.shape[0]) != row
    batches[batch] = Batch(cut.features[keep], cut.labels[keep], cut.truth[keep])
    return dataclasses.replace(scenario, batches=batches)


@pytest.mark.parametrize("value, batch", [(np.nan, 1), (np.inf, 1), (-np.inf, 1),
                                          (np.nan, 0), (np.inf, 0), (-np.inf, 0)],
                         ids=["nan", "inf", "-inf", "nan-first", "inf-first", "-inf-first"])
def test_prequential_run_skips_and_counts_a_non_finite_row(value, batch):
    # An infinite feature is not clipped into [0, 1]: it stays non-finite.  In
    # the first batch it also stays out of the scaling ranges.
    config = RunConfig(seed=1)
    scenario = make_sporadic(sea_with(value, batch=batch), 0.5, np.random.default_rng(0))
    metrics = prequential_run(config, scenario)
    assert metrics.counters["skipped"] == 1
    # The row is left out of prediction, scoring and training alike: the run
    # is the run of the same stream without that row, but for the count.
    reference = prequential_run(config, without_row(scenario, batch=batch))
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


def hand_built(truth, labels):
    """A two-class scenario of 20 samples in two batches of 10, built without
    the scenario builders and so without their checks."""
    features = np.random.default_rng(3).uniform(0.0, 1.0, (20, 2))
    return StreamScenario([Batch(features[k:k + 10], labels[k:k + 10], truth[k:k + 10])
                           for k in (0, 10)], 2, 0.5)


def refuse_predict(self, features):
    raise AssertionError("a batch was predicted before the scenario was checked")


@pytest.mark.parametrize("bad, message", [(-1, "truth -1 outside 0..1"),
                                          (5, "truth 5 outside 0..1"),
                                          (0.5, "truth 0.5 is not an integer")])
def test_prequential_run_refuses_a_bad_truth_before_any_prediction(bad, message, monkeypatch):
    truth = np.tile([0.0, 1.0], 10)
    truth[13] = bad
    scenario = hand_built(truth, np.full(20, -1))
    monkeypatch.setattr(StreamLearner, "predict", refuse_predict)
    with pytest.raises(ValueError, match=re.escape(message)):
        prequential_run(RunConfig(seed=1), scenario)


def test_prequential_run_refuses_a_bad_training_label_before_any_prediction(monkeypatch):
    truth = np.tile([0, 1], 10)
    labels = truth.copy()
    labels[14] = 7
    monkeypatch.setattr(StreamLearner, "predict", refuse_predict)
    with pytest.raises(ValueError,
                       match=f"^{re.escape('label 7 outside -1..1 (-1 means unlabelled)')}$"):
        prequential_run(RunConfig(seed=1), hand_built(truth, labels))


# Each used to raise IndexError only after batch 0 had been trained on.
@pytest.mark.parametrize("name, batch, size", [("labels", 1, 9), ("truth", 1, 9),
                                               ("labels", 0, 11)])
def test_prequential_run_refuses_a_misaligned_batch_before_any_prediction(
        name, batch, size, monkeypatch):
    truth = np.tile([0, 1], 10)
    scenario = hand_built(truth, truth.copy())
    old = scenario.batches[batch]
    scenario.batches[batch] = dataclasses.replace(
        old, **{name: np.resize(getattr(old, name), size)})
    monkeypatch.setattr(StreamLearner, "predict", refuse_predict)
    with pytest.raises(ValueError, match=re.escape(
            f"batch {batch}: labels and truth must align with its features")):
        prequential_run(RunConfig(seed=1), scenario)


def test_prequential_run_scores_a_whole_float_truth_as_its_integers():
    truth = np.tile([0, 1], 10)
    as_ints = prequential_run(RunConfig(seed=1), hand_built(truth, truth.copy()))
    as_floats = prequential_run(RunConfig(seed=1),
                                hand_built(truth.astype(float), truth.copy()))
    assert as_floats.signature() == as_ints.signature()
    assert int(as_floats.confusion.sum()) == 20


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
@pytest.mark.parametrize("bad", [2, 9, -2, 1.5, np.nan])
def test_out_of_range_label_rejected_before_any_state_change(bad, agmm_off):
    learner = warmed_learner(ablate=["agmm"] if agmm_off else [])
    before = learner_state(learner)
    labels = np.array([0, 1, -1, bad, 0])
    with pytest.raises(ValueError, match=f"label {bad} "):
        learner.train_on_batch(np.full((5, 3), 0.5), labels)
    assert learner_state(learner) == before
    with pytest.raises(ValueError, match=f"label {bad} "):
        learner.train_on_sample(np.full(3, 0.5), bad)
    assert learner_state(learner) == before


@pytest.mark.parametrize("bad", [2, 9, -2])
def test_batch_and_sample_refuse_an_out_of_range_label_with_one_message(bad):
    learner = warmed_learner()
    messages = []
    for call in (lambda: learner.train_on_sample(np.full(3, 0.5), bad),
                 lambda: learner.train_on_batch(np.full((3, 3), 0.5), np.array([0, bad, 1]))):
        with pytest.raises(ValueError) as caught:
            call()
        messages.append(str(caught.value))
    assert messages == [f"label {bad} outside -1..1 (-1 means unlabelled)"] * 2


# The learner is the one per-sample check: the network and mixture methods it
# calls trust the sample.
@pytest.mark.parametrize("x", [np.array([0.5, np.nan, 0.5]), np.array([0.5, np.inf, 0.5]),
                               np.full(4, 0.5), np.full((1, 3), 0.5), np.full((3, 3), 0.5),
                               np.float64(0.5), [0.5, -np.inf, 0.5], np.ones(2, dtype=np.int64)])
def test_bad_sample_rejected_before_counters_move(x):
    learner = warmed_learner()
    before = learner_state(learner)
    with pytest.raises(ValueError, match=r"non-finite|^expected a sample of shape \(3,\), got "):
        learner.train_on_sample(x, 1)
    assert learner_state(learner) == before
    assert learner.counters["samples"] == 60


@pytest.mark.parametrize("label", [1, -1])
def test_an_integer_or_list_sample_trains_like_its_float_copy(label):
    learners = [warmed_learner() for _ in range(3)]
    for learner, x in zip(learners, (np.array([0.0, 1.0, 1.0]), np.array([0, 1, 1]),
                                     [0, 1.0, 1])):
        learner.train_on_sample(x, label)
    assert learner_state(learners[1]) == learner_state(learners[0])
    assert learner_state(learners[2]) == learner_state(learners[0])


@pytest.mark.parametrize("ablate", [[], ["agmm"], ["evolve"], ["slash"]],
                         ids=["full", "agmm", "evolve", "slash"])
def test_each_training_step_checks_its_sample_and_label_once(ablate, monkeypatch):
    # Labelled, unlabelled and self-labelled samples each pass one check_sample
    # and one check_label, wherever the package imports them.
    checks = {"check_sample": check_sample, "check_label": check_label}
    calls = []
    for name, check in checks.items():
        def counted(*args, _check=check, _name=name):
            calls.append(_name)
            return _check(*args)
        for module in [module for key, module in sys.modules.items()
                       if key == "parsnet" or key.startswith("parsnet.")]:
            if getattr(module, name, None) is check:
                monkeypatch.setattr(module, name, counted)
    per_step, train = [], StreamLearner.train_on_sample

    def counted_train(self, x, label):
        calls.clear()
        train(self, x, label)
        per_step.append(sorted(calls))

    monkeypatch.setattr(StreamLearner, "train_on_sample", counted_train)
    scenario = make_sporadic(blob_batches(n_batches=8, size=250, seed=2), 0.5,
                             np.random.default_rng(6))
    metrics = prequential_run(RunConfig(seed=4, ablate=ablate), scenario)
    assert per_step == [["check_label", "check_sample"]] * metrics.counters["samples"]
    assert 0 < metrics.counters["disc_label_steps"] < metrics.counters["samples"]
    assert (metrics.counters["disc_pseudo_steps"] > 0) == (ablate in ([], ["evolve"]))


@pytest.mark.parametrize("flag", [True, False])
def test_boolean_labels_are_refused_alike_by_sample_batch_and_batching(flag):
    learner = warmed_learner()
    before = learner_state(learner)
    message = f"^label {flag!r} is not an integer$"
    with pytest.raises(ValueError, match=message):
        learner.train_on_sample(np.full(3, 0.5), flag)
    with pytest.raises(ValueError, match=message):
        learner.train_on_batch(np.full((2, 3), 0.5), np.array([flag, not flag]))
    for labels in ([flag, 1], [1, flag]):  # a list is checked item by item, not cast
        with pytest.raises(ValueError, match=message):
            learner.train_on_batch(np.full((2, 3), 0.5), labels)
        with pytest.raises(ValueError, match=message):
            as_batches(np.ones((2, 3)), labels, 2)
    assert learner_state(learner) == before
    with pytest.raises(ValueError, match=message):
        as_batches(np.ones((2, 3)), np.array([flag, not flag]), 2)


def test_whole_float_batch_labels_train_as_integers():
    features = np.random.default_rng(3).random((40, 3))
    labels = np.tile([0, 1, -1, 1], 10)
    learners = [warmed_learner(), warmed_learner()]
    learners[0].train_on_batch(features, labels)
    learners[1].train_on_batch(features, labels.astype(float))
    assert learner_state(learners[0]) == learner_state(learners[1])


# A float is no label, nor is None: -1 means "no label".
@pytest.mark.parametrize("label", [2, 9, -2, 1.5, None, "1"])
def test_sample_and_batch_refuse_a_label_with_one_message(label):
    learner = warmed_learner()
    before = learner_state(learner)
    messages = []
    for call in (lambda: learner.train_on_sample(np.full(3, 0.5), label),
                 lambda: learner.train_on_batch(np.full((3, 3), 0.5), np.array([label, 0, 1]))):
        with pytest.raises(ValueError) as caught:
            call()
        messages.append(str(caught.value))
    assert messages[0] == messages[1] and messages[0].startswith(f"label {label!r} ")
    assert learner_state(learner) == before


def test_an_unsigned_label_beyond_int64_is_out_of_range_not_wrapped():
    # Cast to int64, 2**64 - 1 would wrap to -1 and train as "no label".  An
    # array that mixes it with Python ints is float64, so it stands alone here.
    learner = warmed_learner()
    before = learner_state(learner)
    labels = np.array([1, 2**64 - 1], dtype=np.uint64)
    for call in (lambda: learner.train_on_sample(np.full(3, 0.5), labels[1]),
                 lambda: learner.train_on_batch(np.full((2, 3), 0.5), labels)):
        with pytest.raises(ValueError, match=r"^label 18446744073709551615 outside -1\.\.1 "):
            call()
    assert learner_state(learner) == before


def test_a_label_array_of_python_objects_is_checked_item_by_item():
    learners = [warmed_learner(), warmed_learner()]
    before = learner_state(learners[0])
    with pytest.raises(ValueError, match="^label None is not an integer$"):
        learners[0].train_on_batch(np.full((3, 3), 0.5), [0, None, 1])
    assert learner_state(learners[0]) == before
    features = np.random.default_rng(4).random((3, 3))
    learners[0].train_on_batch(features, np.array([0, -1, 1], dtype=object))
    learners[1].train_on_batch(features, np.array([0, -1, 1]))
    assert learner_state(learners[0]) == learner_state(learners[1])


# A whole float is no label either, but a label array of whole floats trains
# as its integers (see test_whole_float_batch_labels_train_as_integers).
@pytest.mark.parametrize("label", [1.0, np.float64(0.0)])
def test_a_sample_refuses_a_whole_float_label(label):
    learner = warmed_learner()
    before = learner_state(learner)
    with pytest.raises(ValueError, match=re.escape(f"label {label!r} is not an integer")):
        learner.train_on_sample(np.full(3, 0.5), label)
    assert learner_state(learner) == before


def test_batch_shape_mismatch_rejected_before_any_state_change():
    learner = warmed_learner()
    before = learner_state(learner)
    with pytest.raises(ValueError):
        learner.train_on_batch(np.full((5, 4), 0.5), np.zeros(5, dtype=np.int64))
    with pytest.raises(ValueError):
        learner.train_on_batch(np.full((5, 3), 0.5), np.zeros(4, dtype=np.int64))
    assert learner_state(learner) == before


def test_library_callers_get_the_option_checks(monkeypatch):
    # A negative mask fraction means nothing and a misspelt ablation would
    # switch nothing off: each must raise before any state exists.
    def unbuilt(*args, **kwargs):
        raise AssertionError("learner state built before the config was checked")

    monkeypatch.setattr(stream_module, "Network", unbuilt)
    scenario = make_sporadic(gen_sea(600, seed=1, batch_size=200), 0.5,
                             np.random.default_rng(1))
    # The network's steps and mask take the rates and the fraction as given.
    changes = [{"mask_frac": -0.5}, {"mask_frac": 1.0}, {"mask_frac": math.nan},
               {"ablate": ["evolv"]}]
    changes += [{key: value} for key in ("lr_gen", "lr_disc")
                for value in (math.nan, math.inf, -math.inf, -0.1)]
    for change in changes:
        (key,) = change
        config = RunConfig(seed=1, **change)
        with pytest.raises(ValueError, match=f"^{key}: "):
            StreamLearner(3, 2, config)
        with pytest.raises(ValueError, match=f"^{key}: "):
            prequential_run(config, scenario)


def test_the_mixture_posterior_is_ranked_once_per_unlabelled_sample(monkeypatch):
    posteriors, ranked = [], []
    class_posterior, normalized_top2 = AgmmModel.class_posterior, slash.normalized_top2

    def kept(self, x):
        posteriors.append(class_posterior(self, x))
        return posteriors[-1]

    def counted(probs):
        ranked.append(probs)  # kept alive, so no two arguments share an id
        return normalized_top2(probs)

    monkeypatch.setattr(AgmmModel, "class_posterior", kept)
    for module in (slash, stream_module):
        monkeypatch.setattr(module, "normalized_top2", counted)
    rng = np.random.default_rng(1)
    labels = rng.integers(0, 2, 300)
    labels[100:][rng.random(200) < 0.8] = -1
    StreamLearner(3, 2, RunConfig(seed=0)).train_on_batch(rng.random((300, 3)), labels)
    assert len(posteriors) > 100
    ids = [id(probs) for probs in ranked]
    # A None posterior (no class evidence) is not ranked at all.
    assert [ids.count(id(posterior)) for posterior in posteriors] == \
        [int(posterior is not None) for posterior in posteriors]


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
    metrics = prequential_run(RunConfig(seed=1, ablate=["evolve"]), scenario)
    assert set(metrics.hidden_nodes) == {1}
    assert not any(kind.startswith("node") for _, kind in metrics.events)


def test_slash_off_emits_no_pseudo_labels():
    scenario = make_infinite_delay(blob_batches(n_batches=6, size=200))
    metrics = prequential_run(RunConfig(seed=1, ablate=["slash"]), scenario)
    assert metrics.pseudo_labels == 0
    assert metrics.counters["disc_aug_steps"] == 0


def test_fully_labelled_stream_has_no_pseudo_labels():
    batches = blob_batches(n_batches=4, size=150)
    scenario_like = make_sporadic(batches, 0.99, np.random.default_rng(0))
    # force every label present: rebuild with full labels
    full = [Batch(b.features, b.truth.copy(), b.truth) for b in batches]
    scenario = StreamScenario(full, scenario_like.num_classes, 1.0)
    metrics = prequential_run(RunConfig(seed=1), scenario)
    assert metrics.pseudo_labels == 0


def test_agmm_off_runs_with_static_unit_mixture():
    scenario = make_sporadic(blob_batches(n_batches=5, size=200), 0.5,
                             np.random.default_rng(5))
    metrics = prequential_run(RunConfig(seed=1, ablate=["agmm"]), scenario)
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

def test_mean_shift_triggers_mixture_insertion_and_growth():
    batches = drift_stream(n_batches=10, size=200, shift_at=6, seed=7)
    scenario = make_sporadic(batches, 0.5, np.random.default_rng(7))
    metrics = prequential_run(RunConfig(seed=7), scenario)
    shift_sample = 6 * 200
    inserts = [s for s, kind in metrics.events
               if kind == "mixture_insert" and s > shift_sample]
    grows = [s for s, kind in metrics.events
             if kind == "node_grow" and s > shift_sample]
    assert inserts and inserts[0] <= shift_sample + 50
    assert grows and grows[0] <= shift_sample + 2 * 200


# -- the log -----------------------------------------------------------------------------

LOG_FIELDS = {
    "check": ["sample", "phase", "bias_sq", "variance", "bias_level", "var_level",
              "hidden", "components"],
    "gate": ["sample", "decision", "net_confidence", "agmm_confidence", "label",
             "hedge_strength"],
}


def test_log_record_fields():
    records = []
    scenario = make_sporadic(blob_batches(n_batches=3, size=100), 0.5,
                             np.random.default_rng(0))
    prequential_run(RunConfig(seed=1), scenario,
                    lambda kind, **fields: records.append((kind, list(fields))))
    assert all(names == LOG_FIELDS[kind] for kind, names in records)
    kinds = [kind for kind, _ in records]
    assert kinds.count("check") > 100
    assert kinds.count("gate") == 150  # one record per unlabelled sample


def test_the_learner_opens_no_file(monkeypatch, tmp_path):
    def refused(*args, **kwargs):
        raise AssertionError("a file was opened")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("builtins.open", refused)
    batches = blob_batches(n_batches=3, size=100)
    learner = StreamLearner(2, 2, RunConfig(seed=1))
    learner.train_on_batch(batches[0].features, batches[0].labels)
    prequential_run(RunConfig(seed=1), make_sporadic(batches, 0.5, np.random.default_rng(0)))
    assert list(tmp_path.iterdir()) == []


def capture_learners(monkeypatch):
    """A list that collects each learner as it is constructed."""
    learners = []
    init = StreamLearner.__init__

    def capturing_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        learners.append(self)

    monkeypatch.setattr(StreamLearner, "__init__", capturing_init)
    return learners


@pytest.mark.parametrize("workload", ["sea-delay", "hyperplane-sporadic"])
def test_logs_do_not_change_learning(workload, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # bench imports its siblings by name
    import state_digest
    import workloads

    learners = capture_learners(monkeypatch)
    (stream,) = workloads.build_streams(workload, seed=1, streams=1)
    records = []
    plain = prequential_run(stream.config, stream.scenario)
    logged = prequential_run(stream.config, stream.scenario,
                             lambda kind, **fields: records.append({"kind": kind, **fields}))
    assert logged.signature() == plain.signature()
    assert state_digest.learner_state_digest(learners[1]) == \
        state_digest.learner_state_digest(learners[0])
    rows = [record for record in records if record["kind"] == "gate"]
    unlabelled = sum(int((batch.labels < 0).sum()) for batch in stream.scenario.batches)
    assert len(rows) == unlabelled
    scored = [row for row in rows if row["agmm_confidence"] is not None]
    assert len(scored) > unlabelled // 2
    # Every record whose mixture posterior exists carries a network confidence,
    # the records the mixture side rejects included.
    assert all(0.5 <= row["net_confidence"] <= 1.0 for row in scored)
    assert any(row["agmm_confidence"] < stream.config.agmm_conf for row in scored)


def rebuilt_conditionals(mixture):
    """The class conditionals rebuilt from ``class_counts`` on a copy."""
    probe = AgmmModel(mixture.input_dim, mixture.num_classes, mixture.init_spread)
    probe.class_counts = mixture.class_counts.copy()
    return probe._class_conditionals()


@pytest.mark.parametrize("workload", ["hyperplane-sporadic", "clusters-sporadic"])
def test_filled_class_conditionals_equal_a_rebuild_after_every_sample(workload, monkeypatch):
    # A credited label re-divides one row of a filled cache; the whole cache
    # must still hold the bits of a full rebuild, sample after sample.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    (stream,) = workloads.build_streams(workload, seed=1, streams=1)
    train = StreamLearner.train_on_sample
    checked = []

    def checking_train(self, x, label):
        train(self, x, label)
        cached = self.mixture._conditionals
        if cached is not None:
            assert cached.tobytes() == rebuilt_conditionals(self.mixture).tobytes()
            checked.append(label >= 0)

    monkeypatch.setattr(StreamLearner, "train_on_sample", checking_train)
    prequential_run(stream.config, stream.scenario)
    # Both kinds of sample met a filled cache, the credited ones many times.
    assert checked.count(True) > 500 and checked.count(False) > 500


def importance_from_accumulators(hedge):
    """The normalised importance, recomputed from the hedge's accumulators."""
    raw = hedge._loss_drop / (hedge._movement ** 2 + slash._EPS)
    total_sq = 0.0
    for part in theta_views(raw * raw, hedge.n_inputs, hedge.n_classes).values():
        total_sq += float(np.add.reduce(part, axis=None))
    norm = math.sqrt(total_sq)
    return np.zeros_like(raw) if norm == 0.0 else raw / norm


@pytest.mark.parametrize("workload", ["sea-delay", "clusters-sporadic"])
def test_each_pull_uses_the_importance_of_the_current_accumulators(workload, monkeypatch):
    # The pull computes the importance where a label step or a resize dropped
    # it, and reuses it otherwise; either way it is that of the accumulators.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    (stream,) = workloads.build_streams(workload, seed=1, streams=1)
    pull = slash.HedgeState.pull
    computed = []

    def checking_pull(self, params, strength):
        computed.append(self._importance is None)
        addend = pull(self, params, strength)
        assert self._importance.tobytes() == importance_from_accumulators(self).tobytes()
        return addend

    monkeypatch.setattr(slash.HedgeState, "pull", checking_pull)
    prequential_run(stream.config, stream.scenario)
    assert True in computed and False in computed


# Every underscore attribute of the learner and its parts.  The derived ones
# are caches that ``clear_caches`` drops; the held ones are state.  A new
# cache fails the test below until ``clear_caches`` drops it and it is listed
# here.
DERIVED = {"learner": [], "net": ["_forward"],
           "mixture": ["_conditionals"],
           "hedge": ["_importance"]}
HELD = {"learner": ["_eye", "_last_growth"],
        "net": [], "mixture": [], "hedge": ["_anchor", "_loss_drop", "_movement"]}


def clear_caches(learner):
    """Drop every derived cache of ``learner``: each is rebuilt from its state."""
    learner.net._forward = None
    learner.mixture._conditionals = None
    learner.hedge._importance = None


@pytest.mark.parametrize("workload", ["sea-delay", "hyperplane-sporadic", "clusters-sporadic"])
def test_derived_caches_do_not_change_learning(workload, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # bench imports its siblings by name
    import state_digest
    import workloads

    learners = capture_learners(monkeypatch)
    (stream,) = workloads.build_streams(workload, seed=0, streams=1)
    plain = prequential_run(stream.config, stream.scenario)
    train, step = StreamLearner.train_on_sample, Network.discriminative_step

    def uncached_train(self, x, label):
        clear_caches(self)
        train(self, x, label)

    def uncached_step(self, *args, **kwargs):
        self._forward = None
        return step(self, *args, **kwargs)

    monkeypatch.setattr(StreamLearner, "train_on_sample", uncached_train)
    monkeypatch.setattr(Network, "discriminative_step", uncached_step)
    uncached = prequential_run(stream.config, stream.scenario)
    assert uncached.signature() == plain.signature()
    assert state_digest.learner_state_digest(learners[1]) == \
        state_digest.learner_state_digest(learners[0])
    learner = learners[0]
    parts = {"learner": learner, "net": learner.net, "mixture": learner.mixture,
             "hedge": learner.hedge}
    for name, part in parts.items():
        found = sorted(key for key in vars(part) if key.startswith("_"))
        assert found == sorted(DERIVED[name] + HELD[name]), name
