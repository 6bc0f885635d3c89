import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from parsnet.agmm import PROBIT_SCALE, AgmmModel
from parsnet.network import Network, sigmoid, softmax
from parsnet.plasticity import (PhaseMonitor, RunningStat, bias_variance,
                                expected_hidden, prune_candidates)


def build_mixture(centers, spreads, support):
    centers = np.atleast_2d(np.asarray(centers, float))
    model = AgmmModel(centers.shape[1], 2, init_spread=0.1)
    for row in centers:
        model.insert(row)
    model.spreads = np.atleast_2d(np.asarray(spreads, float)).copy()
    model.support = np.asarray(support, dtype=np.int64)
    return model


def mc_expected_hidden(net, mixture, draws, rng):
    """Monte-Carlo integral of the encoder activation under the mixture."""
    priors = mixture.prior_weights()
    pick = rng.choice(mixture.size, size=draws, p=priors)
    x = mixture.centers[pick] + rng.normal(size=(draws, mixture.input_dim)) * mixture.spreads[pick]
    return sigmoid(x @ net.w_in.T + net.b_in).mean(axis=0)


# -- running statistics -------------------------------------------------------

def test_running_stat_matches_numpy():
    rng = np.random.default_rng(0)
    values = rng.normal(2.0, 1.5, 64)
    stat = RunningStat()
    for i, v in enumerate(values, start=1):
        stat.update(float(v))
        assert stat.mean == pytest.approx(values[:i].mean())
        assert stat.std == pytest.approx(values[:i].std())


def test_running_stat_min_trackers_follow_smallest_mean():
    stat = RunningStat()
    for v in (5.0, 4.0, 3.0):
        stat.update(v)
    frozen = stat.min_mean
    assert frozen == pytest.approx(4.0)  # mean of 5,4,3
    stat.update(50.0)
    assert stat.min_mean == frozen  # a rising mean never moves the tracker


def test_running_stat_reset_min():
    stat = RunningStat()
    for v in (1.0, 3.0, 8.0):
        stat.update(v)
    stat.reset_min()
    assert stat.min_mean == stat.mean
    assert stat.min_std == stat.std


# -- grow/prune monitors --------------------------------------------------------

def test_bias_level_two_at_zero_bias():
    monitor = PhaseMonitor()
    monitor.observe_bias(0.0)
    assert monitor.bias_level == pytest.approx(2.0)


def test_var_level_two_at_zero_variance():
    monitor = PhaseMonitor()
    monitor.observe_variance(0.0)
    assert monitor.var_level == pytest.approx(2.0)


def test_levels_stay_in_band():
    monitor = PhaseMonitor()
    for value in (0.0, 0.3, 1.0, 5.0):
        monitor.observe_bias(value)
        monitor.observe_variance(value)
        assert 0.8 < monitor.bias_level <= 2.0
        assert 0.8 < monitor.var_level <= 2.0
    # huge inputs saturate at the lower bound to within float precision
    monitor.observe_bias(1e3)
    assert monitor.bias_level == pytest.approx(0.8)


def test_bias_level_monotone_decreasing():
    monitor = PhaseMonitor()
    levels = []
    for value in (0.0, 0.5, 1.0, 2.0, 4.0):
        monitor.observe_bias(value)
        levels.append(monitor.bias_level)
    assert all(b < a for a, b in zip(levels, levels[1:]))


def test_single_observation_never_fires():
    monitor = PhaseMonitor()
    assert monitor.observe_bias(3.0) is False
    assert monitor.observe_variance(3.0) is False


def test_constant_bias_stream_fires():
    # a never-improving bias is a grow signal by construction
    monitor = PhaseMonitor()
    assert monitor.observe_bias(0.4) is False
    assert monitor.observe_bias(0.4) is True


def test_strictly_decreasing_bias_never_fires():
    monitor = PhaseMonitor()
    fired = [monitor.observe_bias(1.0 - 0.008 * i) for i in range(100)]
    assert not any(fired)


def test_variance_spike_after_plateau_fires():
    monitor = PhaseMonitor()
    rng = np.random.default_rng(1)
    fired_on_plateau = [monitor.observe_variance(0.1 + float(rng.normal(0, 0.002)))
                        for _ in range(100)]
    # once the min trackers carry real spread, a noisy plateau stays quiet
    assert not any(fired_on_plateau[10:])
    assert monitor.observe_variance(1.0) is True


def test_grow_firing_resets_min_trackers():
    monitor = PhaseMonitor()
    monitor.observe_bias(0.4)
    assert monitor.observe_bias(0.4) is True
    assert monitor.bias_stat.min_mean == monitor.bias_stat.mean
    assert monitor.bias_stat.min_std == monitor.bias_stat.std


def test_monitor_replay_is_deterministic():
    rng = np.random.default_rng(5)
    sequence = rng.random(200).tolist()
    runs = []
    for _ in range(2):
        monitor = PhaseMonitor()
        runs.append([monitor.observe_bias(v) for v in sequence])
    assert runs[0] == runs[1]


# -- expected hidden activation ----------------------------------------------------

def test_expected_hidden_zero_center_single_component():
    net = Network(3, 2, 4, np.random.default_rng(0))
    net.b_in[:] = np.array([0.5, -0.5, 0.0, 2.0])
    mixture = build_mixture([[0.0, 0.0, 0.0]], [[1.0, 1.0, 1.0]], [7])
    assert expected_hidden(net, mixture) == pytest.approx(sigmoid(net.b_in))


def test_expected_hidden_zero_spread_skips_scaling():
    rng = np.random.default_rng(1)
    net = Network(2, 2, 3, rng)
    mixture = build_mixture([[0.4, -0.2], [1.0, 0.3]], np.zeros((2, 2)), [1, 3])
    weights = mixture.prior_weights()
    direct = weights @ sigmoid(mixture.centers @ net.w_in.T + net.b_in)
    assert expected_hidden(net, mixture) == pytest.approx(direct)


def test_expected_hidden_lies_in_unit_interval():
    rng = np.random.default_rng(2)
    for _ in range(10):
        net = Network(4, 2, 5, rng)
        mixture = build_mixture(rng.normal(size=(3, 4)), rng.uniform(0.05, 0.8, (3, 4)),
                                rng.integers(1, 20, 3))
        e_hidden = expected_hidden(net, mixture)
        assert np.all(e_hidden > 0.0) and np.all(e_hidden < 1.0)


def test_expected_hidden_matches_monte_carlo():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(5):
        net = Network(3, 2, 1, rng)
        mixture = build_mixture(rng.uniform(-1, 1, (2, 3)),
                                rng.uniform(0.05, 0.6, (2, 3)),
                                rng.integers(1, 10, 2))
        analytic = expected_hidden(net, mixture)
        numeric = mc_expected_hidden(net, mixture, 100_000, rng)
        worst = max(worst, float(np.max(np.abs(analytic - numeric) / numeric)))
    assert worst <= 0.05, f"worst relative error {worst:.4f}"


@settings(max_examples=100, deadline=None)
@given(
    centers=arrays(float, (2, 3), elements=st.floats(-5, 5)),
    spread_exp=arrays(float, (2, 3), elements=st.floats(-8, 1)),
    support=arrays(np.int64, 2, elements=st.integers(1, 2 ** 40)),
    hidden=st.integers(1, 9),
    seed=st.integers(0, 2 ** 32 - 1),
    size=st.sampled_from([1, 1, 1, 2]),
)
def test_expected_hidden_equals_the_prior_blend_bit_for_bit(centers, spread_exp, support,
                                                            hidden, seed, size):
    # One component takes its row as it is (weight 1.0); two read the priors.
    net = Network(3, 2, hidden, np.random.default_rng(seed))
    mixture = build_mixture(centers[:size], 10.0 ** spread_exp[:size], support[:size])
    read = []
    mixture.prior_weights = lambda: read.append(1) or AgmmModel.prior_weights(mixture)
    e_hidden = expected_hidden(net, mixture)
    assert bool(read) == (size == 2)
    shrunk = mixture.centers / np.sqrt(1.0 + PROBIT_SCALE * mixture.spreads ** 2)
    per_component = sigmoid(shrunk.dot(net.w_in.T) + net.b_in)
    blended = mixture.prior_weights().dot(per_component)
    assert e_hidden.tobytes() == blended.tobytes()


# -- bias/variance decomposition ------------------------------------------------------

def test_saturated_hidden_units_collapse_second_moment():
    # with activations in {0,1} the squared pass equals the plain pass, so
    # the variance reduces to the output map's own curvature term
    net = Network(4, 3, 2, np.random.default_rng(0))
    e_hidden = np.array([0.0, 1.0])
    _, variance = bias_variance(e_hidden, np.eye(3)[0], net, "discriminative")
    first = softmax(e_hidden @ net.w_out + net.c_out)
    assert variance == pytest.approx(float((first - first * first).sum()))


def test_perfect_prediction_gives_zero_bias():
    net = Network(4, 3, 2, np.random.default_rng(1))
    e_hidden = np.array([0.3, 0.8])
    target = softmax(e_hidden @ net.w_out + net.c_out)
    bias_sq, _ = bias_variance(e_hidden, target, net, "discriminative")
    assert bias_sq == pytest.approx(0.0, abs=1e-18)


def test_bias_variance_matches_direct_recomputation():
    rng = np.random.default_rng(4)
    net = Network(5, 3, 4, rng)
    e_hidden = rng.uniform(0.05, 0.95, 4)

    target = np.eye(3)[2]
    bias_sq, variance = bias_variance(e_hidden, target, net, "discriminative")
    first = softmax(e_hidden @ net.w_out + net.c_out)
    second = softmax((e_hidden * e_hidden) @ net.w_out + net.c_out)
    assert bias_sq == pytest.approx(float(((first - target) ** 2).sum()))
    assert variance == pytest.approx(float((second - first * first).sum()))

    x = rng.random(5)
    bias_sq, variance = bias_variance(e_hidden, x, net, "generative")
    first = sigmoid(e_hidden @ net.w_in + net.d)
    second = sigmoid((e_hidden * e_hidden) @ net.w_in + net.d)
    assert bias_sq == pytest.approx(float(((first - x) ** 2).sum()))
    assert variance == pytest.approx(float((second - first * first).sum()))


def test_bias_variance_rejects_unknown_phase():
    net = Network(2, 2, 1, np.random.default_rng(0))
    with pytest.raises(ValueError):
        bias_variance(np.array([0.5]), np.zeros(2), net, "both")


# -- prune candidate selection ------------------------------------------------------------

def test_prune_candidates_all_equal_keeps_first():
    assert prune_candidates(np.array([0.4, 0.4, 0.4, 0.4])) == [1, 2, 3]


def test_prune_candidates_picks_weak_unit():
    # mean 0.6033, std 0.4196: only the third unit is half a sigma under
    assert prune_candidates(np.array([0.9, 0.9, 0.01])) == [2]


def test_prune_candidates_single_unit_empty():
    assert prune_candidates(np.array([0.1])) == []


def test_prune_candidates_can_be_empty():
    # min 0.5 sits above mean - std/2 = 0.4922 here
    assert prune_candidates(np.array([0.5, 0.5, 0.5, 0.5, 0.5, 0.9])) == []
