import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.cluster.vq import kmeans2

from parsnet.agmm import _ROWS, AgmmModel, _activity_cutoff, insertion_threshold


def build(centers, spreads, support=None, num_classes=2, **kw):
    """Model with hand-picked component state."""
    centers = np.atleast_2d(np.asarray(centers, float))
    model = AgmmModel(centers.shape[1], num_classes, **kw)
    for row in centers:
        model.insert(row)
    model.spreads = np.atleast_2d(np.asarray(spreads, float)).copy()
    if support is not None:
        model.support = np.asarray(support, dtype=np.int64)
    return model


# -- activation ---------------------------------------------------------------

def activation(center, spread, x):
    """Activation of ``x`` on a one-component mixture."""
    (value,) = build([center], [spread])._activations(np.asarray(x, float))
    return value


def test_activation_at_center_is_one():
    assert activation([0.3, -1.0], [0.2, 2.0], [0.3, -1.0]) == 1.0


def test_activation_one_dim():
    assert activation([0.0], [1.0], [1.0]) == pytest.approx(math.exp(-0.5))


def test_activation_takes_worst_dimension():
    # per-dimension factors exp(-0.5) and exp(-0.125); the min wins
    value = activation([0.0, 0.0], [1.0, 2.0], [1.0, 1.0])
    assert value == pytest.approx(math.exp(-0.5))
    assert value < math.exp(-0.125)


def test_far_out_sample_keeps_its_activation_and_likelihood():
    # Far outside the normalised range z * z overflows to inf: the activation
    # is 0 and the log-likelihood -inf, as they were under np.errstate, and
    # numpy's overflow warning now shows.
    model = build([[0.5, 0.5], [0.2, 0.9]], [[0.1, 0.1], [0.05, 0.2]])
    x = np.array([1e200, 0.5])
    with np.errstate(over="ignore"):
        z = (x - model.centers) / model.spreads
        acts = np.exp(-0.5 * np.max(z * z, axis=1))
        log_lik = (-0.5 * np.sum(z * z, axis=1) - np.sum(np.log(model.spreads), axis=1)
                   - 0.5 * 2 * math.log(2.0 * math.pi))
    assert acts.tolist() == [0.0, 0.0] and log_lik.tolist() == [-math.inf, -math.inf]
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert model._activations(x).tobytes() == acts.tobytes()
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert model._log_likelihood(x).tobytes() == log_lik.tobytes()


@settings(max_examples=100, deadline=None)
@given(
    center=arrays(float, 3, elements=st.floats(-5, 5)),
    x=arrays(float, 3, elements=st.floats(-5, 5)),
    spread_exp=arrays(float, 3, elements=st.floats(-0.5, 1)),
)
def test_activation_bounds(center, x, spread_exp):
    value = activation(center, 10.0 ** spread_exp, x)
    assert 0.0 < value <= 1.0
    if np.array_equal(x, center):
        assert value == 1.0
    if value == 1.0:
        assert np.allclose(x, center, atol=1e-5)


# -- winner ---------------------------------------------------------------------

def winner(model, x):
    """The component that a label for ``x`` is credited to."""
    before = model.class_counts.copy()
    model._observe_label(np.asarray(x, float), 0)
    (credited,) = np.flatnonzero((model.class_counts - before)[:, 0])
    return int(credited)


def test_winner_single_component():
    model = build([[0.0, 0.0]], [[1.0, 1.0]])
    assert winner(model, [4.0, -2.0]) == 0


def test_winner_prefers_exact_center():
    model = build([[0.0], [3.0]], [[1.0], [1.0]])
    assert winner(model, [3.0]) == 1


def test_winner_tie_breaks_low_index():
    model = build([[1.0], [1.0]], [[0.5], [0.5]])
    assert winner(model, [0.0]) == 0


def test_winner_empty_model_errors():
    # An empty mixture has no winner, so no class evidence: ``None``.
    assert AgmmModel(2, 2).class_posterior(np.zeros(2)) is None


def test_prior_weights_equal_the_ufunc_sum_form_bit_for_bit():
    rng = np.random.default_rng(8)
    for _ in range(2000):
        m = int(rng.integers(1, 9))
        top = 2 ** int(rng.integers(1, 41))
        model = build(rng.random((m, 2)), np.ones((m, 2)),
                      support=rng.integers(1, top, m, endpoint=True))
        expected = model.support / np.add.reduce(model.support)
        assert model.prior_weights().tobytes() == expected.tobytes()
    model = build(np.zeros((3, 1)), np.ones((3, 1)), support=[2 ** 40, 2 ** 40 - 1, 1])
    assert model.prior_weights().tobytes() == (model.support / np.add.reduce(model.support)).tobytes()


# -- insertion threshold ---------------------------------------------------------

def test_insertion_threshold_one_dim():
    expected = math.exp(-2.0 / (4.0 - 2.0 * math.exp(-0.05)))
    assert insertion_threshold(1, 2.0) == pytest.approx(expected)
    assert insertion_threshold(1, 2.0) == pytest.approx(0.3854, abs=1e-4)


def test_insertion_threshold_vanishing_confidence():
    assert insertion_threshold(3, 1e-12) == pytest.approx(1.0)


def test_insertion_threshold_high_dim():
    assert insertion_threshold(784, 1.0) == pytest.approx(math.exp(-196.0), rel=1e-9)


def test_insertion_threshold_validates():
    for confidence in (0.0, -1.0, math.nan, -math.inf):
        with pytest.raises(ValueError, match="confidence must be positive"):
            insertion_threshold(4, confidence)


def test_insertion_gate_keeps_the_bits_of_the_precomputed_denominator():
    # The gate once divided by a per-model cached ``4 - 2 exp(-dim / 20)``.
    # An activation exactly at that old threshold must stay covered and the
    # next float below it uncovered, for every dimension up to 784 and
    # confidences across the range of ``PhaseMonitor.bias_level``.
    confidences = np.append(np.random.default_rng(5).uniform(0.8, 2.0, 6), [0.8 + 1e-12, 2.0])
    for dim in range(1, 785):
        model = AgmmModel(dim, 2)
        denominator = 4.0 - 2.0 * math.exp(-dim / 20.0)
        for confidence in confidences.tolist():
            old = math.exp(-(dim * confidence) / denominator)
            threshold = insertion_threshold(dim, confidence)
            assert not model._should_insert(np.array([old]), threshold), (dim, confidence)
            below = np.array([np.nextafter(old, 0.0)])
            assert model._should_insert(below, threshold), (dim, confidence)


# -- vigilance & insertion gate ---------------------------------------------------

def test_vigilance_single_component_vacuous():
    model = build([[0.0]], [[1.0]])
    assert model.vigilance_passes(0) is True


def test_vigilance_all_overlapping_passes():
    # every other centre inside the winner's one-spread band -> rho = 0
    model = build([[0.0, 0.0], [0.5, -0.5], [0.2, 0.9]],
                  [[1.0, 1.0], [0.1, 0.1], [0.1, 0.1]])
    assert model.vigilance_passes(0) is True


def test_vigilance_separated_needs_winner_span():
    wide_winner = build([[0.0, 0.0], [5.0, 5.0]], [[2.0, 2.0], [1.0, 1.0]])
    assert wide_winner.vigilance_passes(0) is True
    narrow_winner = build([[0.0, 0.0], [5.0, 5.0]], [[0.5, 0.5], [2.0, 2.0]])
    assert narrow_winner.vigilance_passes(0) is False


def test_vigilance_half_overlap_equal_spans():
    # one of two dimensions outside the band -> rho = 0.5; equal spans pass
    model = build([[0.0, 0.0], [0.5, 3.0]], [[1.0, 1.0], [1.0, 1.0]])
    assert model.vigilance_passes(0) is True


def should_insert(model, x, confidence):
    return model._should_insert(model._activations(np.asarray(x, float)),
                                insertion_threshold(model.input_dim, confidence))


def test_should_insert_false_at_center():
    model = build([[1.0, 1.0]], [[0.3, 0.3]])
    assert should_insert(model, [1.0, 1.0], 1.0) is False


def test_should_insert_far_sample_single_component():
    model = build([[0.0]], [[0.1]])
    assert should_insert(model, [1.0], 1.0) is True


def test_should_insert_overlapped_winner_depends_on_distance_only():
    # the winner is fully overlapped (rho = 0), so only coverage decides
    model = build([[0.0], [0.05], [-0.05]], [[0.5], [0.4], [0.4]])
    assert should_insert(model, [10.0], 1.0) is True
    assert should_insert(model, [0.01], 1.0) is False


def vigilance_parts(model, win, ufuncs):
    """``rho``, the spans, their total and the decision of ``vigilance_passes``,
    reduced with the ufuncs it calls or with the ndarray methods they replace."""
    others = np.arange(model.size) != win
    low, high = model.centers[win] - model.spreads[win], model.centers[win] + model.spreads[win]
    outside = (model.centers[others] < low) | (model.centers[others] > high)
    count = np.count_nonzero(outside) if ufuncs else outside.sum()
    rho = count / ((model.size - 1) * model.input_dim)
    if ufuncs:
        span = np.add.reduce(model.spreads, axis=1) / model.input_dim
        total = np.add.reduce(span)
    else:
        span = model.spreads.mean(axis=1)
        total = span.sum()
    return rho, span, total, bool(span[win] >= rho * (total - span[win]))


def test_vigilance_ufunc_forms_equal_the_method_forms_bit_for_bit():
    rng = np.random.default_rng(17)
    passed = 0
    for _ in range(2000):
        m, dim = int(rng.integers(2, 9)), int(rng.integers(1, 12))
        scale = 10.0 ** rng.uniform(-4, 1)
        model = build(rng.random((m, dim)) * scale, rng.random((m, dim)) * scale + 1e-12)
        win = int(rng.integers(m))
        rho, span, total, decision = vigilance_parts(model, win, ufuncs=True)
        ref_rho, ref_span, ref_total, expected = vigilance_parts(model, win, ufuncs=False)
        assert np.float64(rho).tobytes() == np.float64(ref_rho).tobytes()
        assert span.tobytes() == ref_span.tobytes()
        assert np.float64(total).tobytes() == np.float64(ref_total).tobytes()
        assert model.vigilance_passes(win) is decision is expected
        passed += expected
    assert 200 < passed < 1800  # both outcomes are exercised


# -- insert / tune -----------------------------------------------------------------

def test_insert_first_sample():
    model = AgmmModel(3, 2, init_spread=0.1)
    model.insert(np.array([0.2, 0.4, 0.6]))
    assert model.size == 1
    assert np.array_equal(model.centers[0], [0.2, 0.4, 0.6])
    assert np.all(model.spreads[0] == 0.1)
    assert model.support[0] == 1 and model.lifespan[0] == 0
    assert model.activity[0] == 0.0 and model.class_counts.sum() == 0


def test_insert_no_dedup():
    model = AgmmModel(1, 2)
    model.insert(np.array([1.0]))
    model.insert(np.array([1.0]))
    assert model.size == 2
    assert np.array_equal(model.centers, [[1.0], [1.0]])


def test_insert_then_activation_is_one():
    model = AgmmModel(2, 2)
    x = np.array([0.7, -0.1])
    model.insert(x)
    assert model._activations(x).tolist() == [1.0]


def test_tune_midpoint_of_two_samples():
    model = build([[0.0]], [[0.1]], support=[1])
    model._tune(0, np.array([2.0]))
    assert model.centers[0, 0] == pytest.approx(1.0)
    assert model.support[0] == 2


def test_tune_hand_worked_update():
    # support 3, centre 0, variance 1, sample 4 -> centre 1, variance 3
    model = build([[0.0]], [[1.0]], support=[3])
    model._tune(0, np.array([4.0]))
    assert model.centers[0, 0] == pytest.approx(1.0)
    assert model.spreads[0, 0] ** 2 == pytest.approx(3.0)
    assert model.support[0] == 4


def test_tune_constant_stream_decays_toward_floor():
    model = build([[0.5]], [[0.1]])
    last = model.spreads[0, 0] ** 2
    for _ in range(2000):
        model._tune(0, np.array([0.5]))
        current = model.spreads[0, 0] ** 2
        assert current < last
        last = current
    assert model.centers[0, 0] == pytest.approx(0.5)
    assert model.spreads[0, 0] ** 2 >= 1e-8


def test_tune_clamps_variance_at_floor():
    model = build([[0.5]], [[math.sqrt(1.5e-8)]])
    model._tune(0, np.array([0.5]))
    assert model.spreads[0, 0] ** 2 == pytest.approx(1e-8)


def test_tune_increments_exactly_one_support():
    model = build([[0.0], [5.0]], [[1.0], [1.0]], support=[4, 7])
    model._tune(1, np.array([5.5]))
    assert model.support.tolist() == [4, 8]


# -- mixing coefficients --------------------------------------------------------------

def mixing(model, x):
    """Component responsibilities: the weighted likelihoods, normalised."""
    weights = model._weighted_likelihoods(np.asarray(x, float))
    return weights / np.add.reduce(weights)


def test_mixing_single_component():
    model = build([[0.0, 0.0]], [[1.0, 1.0]])
    assert np.array_equal(mixing(model, [3.0, 1.0]), [1.0])


def test_mixing_symmetric_components():
    model = build([[-1.0], [1.0]], [[1.0], [1.0]], support=[5, 5])
    assert mixing(model, [0.0]) == pytest.approx([0.5, 0.5])


def test_mixing_identical_gaussians_follow_priors():
    model = build([[0.0], [0.0]], [[1.0], [1.0]], support=[3, 1])
    assert mixing(model, [0.7]) == pytest.approx([0.75, 0.25])


def test_mixing_underflow_falls_back_to_priors():
    model = build([[0.0], [1.0]], [[1e-300], [1e-300]], support=[3, 1])
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert mixing(model, [0.5]) == pytest.approx([0.75, 0.25])


@settings(max_examples=60, deadline=None)
@given(
    centers=arrays(float, (3, 2), elements=st.floats(-3, 3)),
    spread_exp=arrays(float, (3, 2), elements=st.floats(-2, 0.5)),
    support=arrays(np.int64, 3, elements=st.integers(1, 50)),
    x=arrays(float, 2, elements=st.floats(-4, 4)),
)
def test_mixing_partition_of_unity(centers, spread_exp, support, x):
    model = build(centers, 10.0 ** spread_exp, support=support)
    weights = mixing(model, x)
    assert abs(weights.sum() - 1.0) <= 1e-9
    assert np.all(weights >= 0.0)
    model.class_counts[:] = [[2, 1], [0, 3], [0, 0]]
    posterior = model.class_posterior(x)
    assert abs(posterior.sum() - 1.0) <= 1e-9
    assert np.all(posterior >= 0.0)


# -- class posterior ---------------------------------------------------------------

def test_class_posterior_pure_component():
    model = build([[0.0]], [[1.0]])
    model.class_counts[0] = [5, 0]
    assert model.class_posterior(np.array([2.0])) == pytest.approx([1.0, 0.0])


def test_class_posterior_balanced_counts():
    model = build([[0.0]], [[1.0]])
    model.class_counts[0] = [1, 1]
    assert model.class_posterior(np.array([-3.0])) == pytest.approx([0.5, 0.5])


def test_class_posterior_two_components_matches_direct_formula():
    model = build([[0.0], [2.0]], [[0.5], [0.5]], support=[10, 10])
    model.class_counts[0] = [8, 0]
    model.class_counts[1] = [0, 8]
    x = np.array([0.0])

    # direct evaluation with dense per-component densities
    def density(c, s):
        return math.exp(-0.5 * ((x[0] - c) / s) ** 2) / (s * math.sqrt(2 * math.pi))

    prior = [0.5, 0.5]
    cond = np.array([[1.0, 0.0], [0.0, 1.0]])
    raw = np.array([
        sum(cond[m, o] * prior[m] * density(model.centers[m, 0], model.spreads[m, 0])
            for m in range(2))
        for o in range(2)
    ])
    expected = raw / raw.sum()
    assert model.class_posterior(x) == pytest.approx(expected.tolist())
    assert model.class_posterior(x)[0] > 0.99


def test_class_posterior_underflow_falls_back_to_priors():
    model = build([[0.0], [1.0]], [[1e-300], [1e-300]], support=[3, 1])
    model.class_counts[0] = [4, 0]
    model.class_counts[1] = [0, 4]
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert model.class_posterior(np.array([0.5])) == pytest.approx([0.75, 0.25])


def test_class_posterior_uniform_for_unlabelled_component():
    model = build([[0.0], [10.0]], [[1.0], [1.0]], support=[1, 1])
    model.class_counts[0] = [4, 0]
    # near the unlabelled component the posterior slides toward uniform
    posterior = model.class_posterior(np.array([10.0]))
    assert posterior == pytest.approx([0.5, 0.5], abs=1e-6)


def test_class_posterior_requires_label_evidence():
    model = build([[0.0]], [[1.0]])
    assert model.class_posterior(np.array([0.0])) is None


def test_class_posterior_sums_to_one():
    rng = np.random.default_rng(3)
    model = build(rng.normal(size=(4, 3)), np.full((4, 3), 0.3),
                  support=[1, 2, 3, 4], num_classes=3)
    model.class_counts[1] = [2, 0, 1]
    model.class_counts[3] = [0, 5, 0]
    for _ in range(20):
        posterior = model.class_posterior(rng.normal(size=3))
        assert abs(posterior.sum() - 1.0) <= 1e-9


# -- label observation ----------------------------------------------------------------

def test_observe_label_fresh_component():
    model = build([[0.0]], [[1.0]], num_classes=3)
    model._observe_label(np.array([0.1]), 2)
    assert model.class_counts[0].tolist() == [0, 0, 1]


def test_observe_label_accumulates():
    model = build([[0.0]], [[1.0]])
    model._observe_label(np.array([0.0]), 1)
    model._observe_label(np.array([0.0]), 1)
    assert model.class_counts[0, 1] == 2


def test_observe_label_routes_to_winner():
    model = build([[0.0], [5.0]], [[0.5], [0.5]])
    model._observe_label(np.array([0.1]), 0)
    model._observe_label(np.array([4.9]), 1)
    assert model.class_counts[0].tolist() == [1, 0]
    assert model.class_counts[1].tolist() == [0, 1]


# -- pruning ------------------------------------------------------------------------

def test_prune_keeps_single_component():
    model = build([[0.0]], [[1.0]])
    model.lifespan[:] = 100
    assert model.prune_inactive() == []
    assert model.size == 1


def test_prune_equal_activity_keeps_first():
    model = build([[0.0], [1.0], [2.0]], [[1.0], [1.0], [1.0]])
    model.lifespan[:] = 60
    model.activity[:] = 30.0
    assert model.prune_inactive() == [1, 2]
    assert model.size == 1
    assert model.centers[0, 0] == 0.0


def test_prune_respects_grace_period():
    model = build([[0.0], [1.0], [2.0]], [[1.0], [1.0], [1.0]])
    model.lifespan[:] = [60, 60, 5]
    model.activity[:] = [30.0, 30.0, 2.5]
    assert model.prune_inactive() == [0, 1]
    assert model.size == 1
    assert model.centers[0, 0] == 2.0


def test_prune_removes_dormant_component():
    model = build([[0.0], [1.0], [2.0]], [[1.0], [1.0], [1.0]])
    model.lifespan[:] = 100
    model.activity[:] = [90.0, 85.0, 1.0]
    assert model.prune_inactive() == [2]
    assert model.size == 2


def test_every_per_component_array_is_a_listed_row():
    # An array with one row per component that ``_ROWS`` does not name would
    # miss inserts, prunes and the state digest.
    rng = np.random.default_rng(3)
    model = AgmmModel(2, 3, prune_grace=5)
    inserts = prunes = 0
    for step in range(300):
        # three clusters in turn, then the third falls silent
        centre = step % 3 if step < 150 else step % 2
        inserted, pruned = model.update(rng.normal(centre, 0.05, 2), 2.0,
                                        label=int(rng.integers(-1, 3)))
        inserts, prunes = inserts + inserted, prunes + len(pruned)
    assert inserts > 2 and prunes > 0 and model.size >= 2
    rows = [name for name, value in vars(model).items()
            if not name.startswith("_") and isinstance(value, np.ndarray)
            and value.ndim >= 1 and value.shape[0] == model.size]
    assert sorted(rows) == sorted(_ROWS)
    assert list(model._new_row(np.zeros(2))) == list(_ROWS)


def test_an_integer_init_spread_learns_like_its_float():
    # The spreads stay float: an integer array would truncate a tuned
    # spread below 1 to 0 and divide by it.
    rng = np.random.default_rng(5)
    samples = rng.normal(0.0, 0.05, (20, 2))
    models = [AgmmModel(2, 2, init_spread=spread) for spread in (1, 1.0)]
    for model in models:
        assert model.spreads.dtype == np.float64
        for x in samples:
            model.update(x, 1.0)
    integer, real = models
    assert 0.0 < real.spreads.min() < 1.0
    for name in _ROWS:
        a, b = getattr(integer, name), getattr(real, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_prune_never_empties_model():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = int(rng.integers(2, 6))
        model = build(rng.normal(size=(m, 2)), np.full((m, 2), 0.5))
        model.lifespan[:] = rng.integers(0, 60, size=m)
        model.activity[:] = rng.random(m) * model.lifespan
        before_grace = model.lifespan < model.prune_grace
        removed = model.prune_inactive()
        assert model.size >= 1
        assert not any(before_grace[i] for i in removed)


unit_rates = st.floats(0.0, 1.0, allow_subnormal=False)


@settings(max_examples=300, deadline=None)
@given(rate=st.one_of(
    arrays(float, st.integers(2, 64), elements=unit_rates),
    st.builds(np.full, st.integers(2, 64), unit_rates)))  # all-equal rates
def test_activity_cutoff_is_numpy_mean_and_std_bit_for_bit(rate):
    expected = abs(rate.mean() - 0.5 * rate.std())
    assert np.float64(_activity_cutoff(rate)).tobytes() == np.float64(expected).tobytes()


def reference_prune(model):
    """``prune_inactive``'s rule with numpy's own mean and std and no early exit;
    returns the indices it would remove."""
    if model.size < 2:
        return []
    rate = model.activity / np.maximum(model.lifespan, 1)
    doomed = (model.lifespan >= model.prune_grace) & (rate <= abs(rate.mean() - 0.5 * rate.std()))
    if doomed.all():
        doomed[int(rate.argmax())] = False
    return np.flatnonzero(doomed).tolist()


@settings(max_examples=300, deadline=None)
@given(data=st.data(), m=st.integers(2, 12),
       case=st.sampled_from(("mixed", "young", "all_doomed")))
def test_prune_equals_the_reference_rule(data, m, case):
    # "young" keeps every component inside its grace period, the early exit.
    # "all_doomed" gives every component one age past its grace and one rate,
    # a multiple of 1/8 so that the mean is exact: the rule catches every
    # component, and the most active one must be kept.
    model = build(np.arange(m, dtype=float)[:, None], np.ones((m, 1)))
    grace = model.prune_grace
    if case == "all_doomed":
        model.lifespan[:] = data.draw(st.integers(grace, 2 * grace))
        model.activity[:] = data.draw(st.integers(0, 8)) / 8 * model.lifespan
    else:
        top = grace - 1 if case == "young" else 2 * grace
        edges = st.sampled_from([age for age in (grace - 1, grace, grace + 1) if age <= top])
        model.lifespan[:] = data.draw(arrays(np.int64, m,
                                             elements=st.one_of(st.integers(0, top), edges)))
        fractions = data.draw(arrays(float, m, elements=unit_rates))
        model.activity[:] = fractions * model.lifespan
    expected = reference_prune(model)
    if case == "all_doomed":
        assert len(expected) == m - 1
    survivors = np.setdiff1d(np.arange(m), expected)
    before = {name: getattr(model, name)[survivors]
              for name in ("centers", "spreads", "support", "lifespan", "activity")}
    assert model.prune_inactive() == expected
    for name, value in before.items():
        assert np.array_equal(getattr(model, name), value), name


# -- update orchestration ---------------------------------------------------------------

def test_update_bootstraps_from_first_sample():
    model = AgmmModel(2, 2)
    inserted, pruned = model.update(np.array([0.3, 0.4]), 1.0, label=1)
    assert inserted and not pruned
    assert model.size == 1
    assert np.array_equal(model.centers[0], [0.3, 0.4])
    assert model.class_counts[0].tolist() == [0, 1]


def test_update_ages_all_components():
    model = build([[0.0], [5.0]], [[1.0], [1.0]])
    model.update(np.array([0.2]), 2.0)
    assert np.all(model.lifespan == 1)
    assert model.activity[0] > model.activity[1] > 0.0


def test_update_stationary_stream_stays_small():
    rng = np.random.default_rng(42)
    model = AgmmModel(2, 2)
    for _ in range(1000):
        model.update(rng.normal(0.5, 0.1, size=2), 2.0)
    assert model.size <= 3


def test_update_mean_shift_triggers_insertion():
    rng = np.random.default_rng(7)
    model = AgmmModel(2, 2)
    for _ in range(600):
        model.update(rng.normal(0.0, 0.3, size=2), 2.0)
    size_before = model.size
    inserted_at = None
    for step in range(50):
        inserted, _ = model.update(rng.normal(6 * 0.3 + 1.0, 0.3, size=2), 2.0)
        if inserted:
            inserted_at = step
            break
    assert inserted_at is not None, f"no insertion within 50 samples (size {size_before})"


def test_update_two_clusters_matches_kmeans_oracle():
    rng = np.random.default_rng(11)
    which = rng.integers(0, 2, size=2000)
    means = np.array([[0.0, 0.0], [5.0, 5.0]])
    samples = means[which] + rng.normal(0.0, 0.5, size=(2000, 2))

    model = AgmmModel(2, 2)
    for row in samples:
        model.update(row, 2.0)

    centroids, _ = kmeans2(samples, k=np.array([[0.2, 0.2], [4.7, 4.7]]), minit="matrix")
    assert 2 <= model.size <= 4
    for centroid in centroids:
        gaps = np.linalg.norm(model.centers - centroid, axis=1)
        assert gaps.min() <= 0.3, f"no component near {centroid} (best {gaps.min():.3f})"


def composed_update(model, x, confidence, label):
    """``update`` rebuilt from ``insert`` and the single-step helpers, with the
    activations taken afresh for the gate, as the reference."""
    if model.size == 0:
        model.insert(x)
        if label >= 0:
            model._observe_label(x, label)
        return True, []
    acts = model._activations(x)
    model.lifespan += 1
    model.activity += acts
    inserted = model._should_insert(model._activations(x),
                                    insertion_threshold(model.input_dim, confidence))
    if inserted:
        model.insert(x)
    else:
        model._tune(int(acts.argmax()), x)
    pruned = model.prune_inactive()
    if label >= 0:
        model._observe_label(x, label)
    return inserted, pruned


def test_update_equals_public_method_composition():
    # a drifting 3-class stream: the centre walks and jumps, labels come and go
    rng = np.random.default_rng(12)
    fast, reference = AgmmModel(3, 3), AgmmModel(3, 3)
    inserts = prunes = 0
    for step in range(3000):
        centre = np.full(3, 0.2 + step / 6000.0) + (0.4 if (step // 700) % 2 else 0.0)
        x = centre + rng.normal(0.0, 0.08, 3)
        confidence = rng.uniform(0.8, 2.0)
        label = int(rng.integers(3)) if rng.random() < 0.5 else -1
        result = fast.update(x, confidence, label)
        assert result == composed_update(reference, x, confidence, label), step
        inserts += result[0]
        prunes += bool(result[1])
        for name in ("centers", "spreads", "support", "lifespan", "activity", "class_counts"):
            assert np.array_equal(getattr(fast, name), getattr(reference, name)), (step, name)
    assert inserts > 10 and prunes > 10


def posterior_bytes(model, x):
    """The bytes of the class posterior, or ``None`` where it is ``None``."""
    posterior = model.class_posterior(x)
    return None if posterior is None else posterior.tobytes()


def test_class_posterior_equals_recomputation_after_every_update():
    # A fresh model given the same state computes the class conditionals from
    # scratch, so a stale cache on the streaming model shows as a mismatch.
    rng = np.random.default_rng(21)
    model = AgmmModel(3, 3)
    unlabelled_inserts = unlabelled_prunes = labels = 0
    for step in range(3000):
        centre = np.full(3, 0.2 + step / 6000.0) + (0.4 if (step // 700) % 2 else 0.0)
        x = centre + rng.normal(0.0, 0.08, 3)
        label = int(rng.integers(3)) if step < 40 or rng.random() < 0.3 else -1
        inserted, pruned = model.update(x, rng.uniform(0.8, 2.0), label)
        unlabelled_inserts += inserted and label < 0
        unlabelled_prunes += bool(pruned) and label < 0
        labels += label >= 0
        fresh = AgmmModel(3, 3, model.init_spread, model.prune_grace)
        for name in ("centers", "spreads", "support", "lifespan", "activity", "class_counts"):
            setattr(fresh, name, getattr(model, name).copy())
        probe = x + rng.normal(0.0, 0.05, 3)
        assert posterior_bytes(model, probe) == posterior_bytes(fresh, probe), step
    assert unlabelled_inserts > 10 and unlabelled_prunes > 10 and labels > 500


def test_observe_label_refreshes_the_class_posterior():
    model = build([[0.0], [5.0]], [[1.0], [1.0]])
    model._observe_label(np.array([0.0]), 0)
    before = model.class_posterior(np.array([0.0]))
    model._observe_label(np.array([0.0]), 1)
    assert model.class_posterior(np.array([0.0])) == pytest.approx([0.5, 0.5], abs=1e-3)
    assert before[0] > 0.99


@pytest.mark.parametrize("confidence", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("size", [0, 1, 2])
def test_update_rejects_bad_confidence_before_any_change(size, confidence):
    # Checked on entry: the mixture neither ages nor, empty or with a
    # component on the sample, inserts.
    model = AgmmModel(1, 2)
    for center in [0.0, 5.0][:size]:
        model.update(np.array([center]), 2.0)
    before = {name: getattr(model, name).copy() for name in _ROWS}
    with pytest.raises(ValueError, match="confidence must be positive"):
        model.update(np.array([0.0]), confidence, label=1)
    for name, value in before.items():
        assert np.array_equal(getattr(model, name), value), name


# -- rewritten forms, bit for bit ---------------------------------------------------

def reference_conditionals(model):
    """The class conditionals in the np.full plus boolean-gather form."""
    totals = np.add.reduce(model.class_counts, axis=1)
    if np.add.reduce(totals) == 0:
        return None
    conditionals = np.full((model.size, model.num_classes), 1.0 / model.num_classes)
    seen = totals > 0
    conditionals[seen] = model.class_counts[seen] / totals[seen, None]
    return conditionals


def test_class_conditionals_equal_the_full_and_gather_form_bit_for_bit():
    rng = np.random.default_rng(31)
    unseen_rows = 0
    for _ in range(2000):
        m, k = int(rng.integers(1, 9)), int(rng.integers(1, 8))
        model = build(rng.random((m, 2)), np.ones((m, 2)), num_classes=k)
        counts = rng.integers(0, 2 ** int(rng.integers(1, 40)), (m, k))
        counts[rng.random(m) < 0.4] = 0  # components that never saw a label
        model.class_counts = counts
        model._conditionals = None
        if not counts.any():
            assert model._class_conditionals() is None
            continue
        unseen_rows += int(np.count_nonzero(~counts.any(axis=1)))
        assert model._class_conditionals().tobytes() == reference_conditionals(model).tobytes()
    assert unseen_rows > 500


def test_class_conditionals_without_any_label_are_none():
    model = build(np.zeros((3, 2)), np.ones((3, 2)), num_classes=4)
    assert model._class_conditionals() is None
    assert model.class_posterior(np.zeros(2)) is None
    assert model._conditionals is None


def reference_rho(model, win):
    """``rho`` of ``vigilance_passes`` in its form with an ``others`` mask."""
    others = np.ones(model.size, dtype=bool)
    others[win] = False
    low, high = model.centers[win] - model.spreads[win], model.centers[win] + model.spreads[win]
    outside = (model.centers[others] < low) | (model.centers[others] > high)
    return np.count_nonzero(outside) / ((model.size - 1) * model.input_dim)


def test_vigilance_without_gathers_equals_the_others_form():
    rng = np.random.default_rng(37)
    passed = 0
    for trial in range(3000):
        m, dim = int(rng.integers(2, 9)), int(rng.integers(1, 12))
        if trial % 3 == 0:
            # Spreads at the variance floor's 1e-4 on centres of 1e10, and of
            # 1e13, where the winner's band rounds onto its own centre.
            centers = 10.0 ** rng.choice([10, 13]) * (1.0 + rng.integers(0, 3, (m, dim)))
            spreads = np.full((m, dim), 1e-4)
        else:
            scale = 10.0 ** rng.uniform(-4, 1)
            centers = rng.random((m, dim)) * scale
            spreads = rng.random((m, dim)) * scale + 1e-12
        model = build(centers, spreads)
        win = int(rng.integers(m))
        # Why the mask can go: the winner's own centre never lies outside its band.
        centre, spread = model.centers[win], model.spreads[win]
        assert not np.count_nonzero((centre < centre - spread) | (centre > centre + spread))
        span = np.add.reduce(model.spreads, axis=1) / model.input_dim
        expected = bool(span[win] >= reference_rho(model, win) * (np.add.reduce(span) - span[win]))
        assert model.vigilance_passes(win) is expected
        passed += expected
    assert 300 < passed < 2700  # both outcomes are exercised


# -- one component ------------------------------------------------------------------

def blended_posterior(model, x):
    """The class posterior by the blend over components, for any size."""
    scores = model._weighted_likelihoods(x).dot(model._class_conditionals())
    return scores / np.add.reduce(scores)


@settings(max_examples=150, deadline=None)
@given(
    center=arrays(float, 3, elements=st.floats(-5, 5)),
    spread_exp=arrays(float, 3, elements=st.floats(-8, 1)),
    support=st.integers(1, 2 ** 40),
    counts=st.lists(st.integers(0, 2 ** 20), min_size=1, max_size=6),
    x=arrays(float, 3, elements=st.floats(-10, 10)),
    far=st.sampled_from([0.0, 1e200, -1e200]),
)
def test_one_component_posterior_equals_the_blend_bit_for_bit(center, spread_exp, support,
                                                              counts, x, far):
    model = build([center], [10.0 ** spread_exp], support=[support], num_classes=len(counts))
    model.class_counts[0] = counts
    x[0] += far  # far out, the log-likelihood overflows to -inf: the prior fallback
    if not any(counts):
        assert model.class_posterior(x) is None
        return
    with np.errstate(over="ignore"):
        expected = blended_posterior(model, x)
    assert model.class_posterior(x).tobytes() == expected.tobytes()


@settings(max_examples=100, deadline=None)
@given(
    center=arrays(float, 2, elements=st.floats(-5, 5)),
    spread_exp=arrays(float, 2, elements=st.floats(-8, 1)),
    x=arrays(float, 2, elements=st.floats(-10, 10)),
    far=st.sampled_from([0.0, 1e200]),
    label=st.integers(0, 2),
)
def test_one_component_credits_its_label_to_row_zero(center, spread_exp, x, far, label):
    model = build([center], [10.0 ** spread_exp], num_classes=3)
    model.class_counts[0] = [1, 2, 3]
    model._class_conditionals()
    x[1] += far
    model._observe_label(x, label)
    expected = [1, 2, 3]
    expected[label] += 1
    assert model.class_counts.tolist() == [expected]
    assert model._conditionals is None


@pytest.mark.parametrize("size", [1, 2])
def test_only_a_mixture_of_several_components_blends_or_searches(size, monkeypatch):
    calls = []
    for name in ("_weighted_likelihoods", "_activations", "prior_weights"):
        def counted(self, *args, _original=getattr(AgmmModel, name), _name=name):
            calls.append(_name)
            return _original(self, *args)
        monkeypatch.setattr(AgmmModel, name, counted)
    model = build([[0.0], [2.0]][:size], [[0.5], [0.5]][:size], support=[1, 3][:size])
    model.class_counts[0] = [2, 1]
    x = np.array([0.3])
    expected = blended_posterior(model, x)
    calls.clear()
    assert model.class_posterior(x).tobytes() == expected.tobytes()
    model._observe_label(x, 1)
    assert model.class_counts[:, 1].tolist() == [2, 0][:size]  # component 0 wins
    blend = ["_weighted_likelihoods", "prior_weights", "_activations"]
    assert calls == ([] if size == 1 else blend)
