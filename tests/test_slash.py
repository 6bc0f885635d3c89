import copy
import math

import numpy as np
import pytest

from parsnet.network import (THETA_KEYS, Network, flatten_theta,
                             normalized_top2, theta_views)
from parsnet.slash import (ACCEPTED, DISAGREEMENT, LOW_CONFIDENCE,
                           UNAVAILABLE, HedgeState, ReconScaler, augment,
                           mixture_confidence, propose_label)


def tiny_theta(value=0.0):
    return {
        "w_in": np.full((2, 3), value),
        "b_in": np.full(2, value),
        "w_out": np.full((2, 2), value),
        "c_out": np.full(2, value),
    }


def tiny_params(value=0.0):
    """``tiny_theta`` as one flat vector."""
    return flatten_theta(**tiny_theta(value))


# -- self-labelling gate ---------------------------------------------------------

def test_propose_label_clear_agreement():
    label, reason = propose_label(np.array([0.9, 0.1]), np.array([0.8, 0.2]))
    assert reason == ACCEPTED
    assert label.label == 0
    assert label.net_confidence == pytest.approx(0.9)
    assert label.agmm_confidence == pytest.approx(0.8)


def test_propose_label_disagreement():
    label, reason = propose_label(np.array([0.9, 0.1]), np.array([0.2, 0.8]))
    assert label is None and reason == DISAGREEMENT


def test_propose_label_low_network_confidence():
    label, reason = propose_label(np.array([0.55, 0.45]), np.array([0.9, 0.1]))
    assert label is None and reason == LOW_CONFIDENCE


def test_propose_label_low_mixture_confidence():
    label, reason = propose_label(np.array([0.9, 0.1]), np.array([0.54, 0.46]))
    assert label is None and reason == LOW_CONFIDENCE


def test_propose_label_missing_posterior_is_flagged_distinctly():
    label, reason = propose_label(np.array([0.99, 0.01]), None)
    assert label is None and reason == UNAVAILABLE
    assert reason != LOW_CONFIDENCE


def test_propose_label_gate_soundness():
    rng = np.random.default_rng(0)
    for _ in range(200):
        net = rng.dirichlet(np.ones(3))
        agmm = rng.dirichlet(np.ones(3))
        label, reason = propose_label(net, agmm)
        if label is not None:
            assert reason == ACCEPTED
            assert label.net_confidence >= 0.6
            assert label.agmm_confidence >= 0.55
            assert label.label == int(np.argmax(net)) == int(np.argmax(agmm))
            assert label.net_confidence == pytest.approx(normalized_top2(net))


def network_first_gate(net_probs, agmm_probs, agmm_threshold, net_threshold):
    """The gate in the order that scores the network first, as plain values."""
    if agmm_probs is None:
        return None, UNAVAILABLE
    net_conf = normalized_top2(net_probs)
    agmm_conf = normalized_top2(agmm_probs)
    if agmm_conf < agmm_threshold or net_conf < net_threshold:
        return None, LOW_CONFIDENCE
    net_class = int(np.argmax(net_probs))
    if net_class != int(np.argmax(agmm_probs)):
        return None, DISAGREEMENT
    return (net_class, agmm_conf, net_conf), ACCEPTED


def gate_cases(seed, count):
    """``(net_probs, agmm_probs, agmm_threshold, net_threshold)``: random pairs,
    missing posteriors, ties, NaN and thresholds met exactly."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        k = int(rng.integers(2, 6))
        net = rng.dirichlet(np.full(k, rng.uniform(0.2, 3.0)))
        agmm = rng.dirichlet(np.full(k, rng.uniform(0.2, 3.0)))
        if trial % 7 == 0:
            net[:2] = net[:2].mean()  # a tie at the top of the network
        if trial % 11 == 0:
            agmm[1:3] = agmm[1:3].mean()
        if trial % 97 == 0:
            agmm[0] = np.nan
        agmm_threshold = rng.uniform(0.5, 0.9)
        net_threshold = rng.uniform(0.5, 0.9)
        if trial % 3 == 0:
            agmm_threshold = normalized_top2(agmm)  # met exactly
        if trial % 5 == 0:
            net_threshold = normalized_top2(net)
        yield net, (None if trial % 13 == 0 else agmm), agmm_threshold, net_threshold


def plain(result):
    pseudo, reason = result
    if pseudo is None:
        return repr((None, reason))
    return repr(((pseudo.label, pseudo.agmm_confidence, pseudo.net_confidence), reason))


def test_mixture_first_gate_equals_the_network_first_order():
    reasons = set()
    for net, agmm, agmm_threshold, net_threshold in gate_cases(43, 6000):
        expected = network_first_gate(net, agmm, agmm_threshold, net_threshold)
        assert plain(propose_label(net, agmm, agmm_threshold, net_threshold)) == repr(expected)
        reasons.add(expected[1])
    assert reasons == {ACCEPTED, UNAVAILABLE, LOW_CONFIDENCE, DISAGREEMENT}


def test_an_unscored_network_gives_the_same_decision_where_the_mixture_rejects():
    skipped = 0
    for net, agmm, agmm_threshold, net_threshold in gate_cases(47, 6000):
        scored = propose_label(net, agmm, agmm_threshold, net_threshold)
        if mixture_confidence(agmm, agmm_threshold) is None:
            skipped += 1
            assert scored[0] is None and scored[1] in (UNAVAILABLE, LOW_CONFIDENCE)
            assert plain(propose_label(None, agmm, agmm_threshold, net_threshold)) == plain(scored)
        else:
            assert repr(mixture_confidence(agmm, agmm_threshold)) == repr(normalized_top2(agmm))
    assert 1000 < skipped < 5000


def test_the_network_side_is_checked_as_before():
    with pytest.raises(ValueError, match="need at least two classes"):
        propose_label(np.array([1.0]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="need at least two classes"):
        propose_label(np.array([0.9, 0.1]), np.array([1.0]))


# -- reconstruction scaling --------------------------------------------------------

def test_scaler_first_observation_is_zero():
    assert ReconScaler().rescale(3.7) == 0.0


def test_scaler_extremes_and_midpoint():
    scaler = ReconScaler()
    scaler.rescale(1.0)
    assert scaler.rescale(3.0) == pytest.approx(1.0)
    assert scaler.rescale(1.0) == pytest.approx(0.0)
    assert scaler.rescale(2.0) == pytest.approx(0.5)


def test_scaler_constant_errors_stay_zero():
    scaler = ReconScaler()
    assert all(scaler.rescale(0.4) == 0.0 for _ in range(5))


def test_scaler_monotone_given_fixed_extrema():
    scaler = ReconScaler()
    scaler.rescale(0.0)
    scaler.rescale(10.0)
    values = [scaler.rescale(e) for e in (1.0, 2.0, 5.0, 7.5, 10.0)]
    assert values == sorted(values)


# -- hedge accumulators --------------------------------------------------------------

def test_record_step_zero_delta_only_counts():
    hedge = HedgeState(tiny_theta())
    hedge.record_step(0.0, tiny_params(1.0))
    assert hedge.steps == 1
    assert all(not hedge.loss_drop[k].any() for k in hedge.loss_drop)
    assert all(not hedge.movement[k].any() for k in hedge.movement)


def test_record_step_scalar_arithmetic():
    # movement against the gradient books a positive loss drop
    hedge = HedgeState(tiny_theta())
    hedge.record_step(0.1, tiny_params(1.0))
    assert hedge.loss_drop["w_in"][0, 0] == pytest.approx(0.1)
    assert hedge.movement["w_in"][0, 0] == pytest.approx(0.1)


def test_record_step_is_additive():
    hedge = HedgeState(tiny_theta())
    for _ in range(2):
        hedge.record_step(0.1, tiny_params(1.0))
    assert hedge.loss_drop["b_in"][0] == pytest.approx(0.2)
    assert hedge.steps == 2


def test_record_step_equals_the_delta_dict_form():
    # The accumulators as they were fed before record_step took the rate:
    # a {key: -lr * grad} dict of parameter moves next to the gradients.
    rng = np.random.default_rng(8)
    net = Network(4, 3, 5, rng)
    hedge = HedgeState.for_network(net)
    loss_drop = {k: np.zeros_like(v) for k, v in hedge.loss_drop.items()}
    movement = {k: np.zeros_like(v) for k, v in hedge.movement.items()}
    for lr in rng.uniform(0.0, 0.2, 50):
        _, flat_grads = net.discriminative_step(rng.random(4), np.eye(3)[rng.integers(3)], lr)
        hedge.record_step(lr, flat_grads)
        grads = theta_views(flat_grads, 4, 3)
        delta = {k: -lr * g for k, g in grads.items()}
        for key in THETA_KEYS:
            loss_drop[key] -= delta[key] * grads[key]
            movement[key] += np.abs(delta[key])
    for key in THETA_KEYS:
        assert hedge.loss_drop[key].tobytes() == loss_drop[key].tobytes(), key
        assert hedge.movement[key].tobytes() == movement[key].tobytes(), key
    assert hedge.steps == 50


def test_importance_inert_without_history():
    hedge = HedgeState(tiny_theta())
    hedge.refresh_importance()
    assert not hedge.pull(tiny_params(5.0), strength=1.0).any()


def test_importance_scalar_normalisation():
    hedge = HedgeState(tiny_theta())
    hedge.loss_drop["w_in"][0, 0] = 2.0
    hedge.movement["w_in"][0, 0] = 1.0
    hedge.refresh_importance()
    assert hedge.importance["w_in"][0, 0] == pytest.approx(1.0, rel=1e-6)
    assert hedge.importance["c_out"] == pytest.approx([0.0, 0.0])


def test_importance_keeps_accumulator_sign():
    hedge = HedgeState(tiny_theta())
    hedge.loss_drop["w_in"][0, 0] = 2.0
    hedge.loss_drop["w_in"][1, 1] = -1.0
    hedge.movement["w_in"][:] = 1.0
    hedge.refresh_importance()
    assert hedge.importance["w_in"][0, 0] > 0.0
    assert hedge.importance["w_in"][1, 1] < 0.0


def test_importance_norm_over_flat_slices_equals_the_per_key_sums():
    rng = np.random.default_rng(53)
    for _ in range(600):
        u, h, c = int(rng.integers(1, 12)), int(rng.integers(1, 120)), int(rng.integers(2, 10))
        n = h * (u + 1 + c) + c
        hedge = HedgeState(theta_views(np.zeros(n), u, c))
        for _ in range(int(rng.integers(1, 4))):
            grads = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
            hedge.record_step(10.0 ** rng.uniform(-3.0, 0.0), grads)
        hedge.refresh_importance()
        loss_drop = flatten_theta(**hedge.loss_drop)
        movement = flatten_theta(**hedge.movement)
        raw = loss_drop / (movement ** 2 + hedge.eps)
        total_sq = 0.0
        for part in theta_views(raw * raw, u, c).values():
            total_sq += float(np.add.reduce(part, axis=None))
        expected = raw / math.sqrt(total_sq)
        assert flatten_theta(**hedge.importance).tobytes() == expected.tobytes()


def test_pull_zero_at_anchor():
    hedge = HedgeState(tiny_theta(0.7))
    for part in hedge.importance.values():
        part[...] = 1.0
    hedge.set_anchor(tiny_params(0.7))
    assert not hedge.pull(tiny_params(0.7), strength=1.0).any()


def test_pull_arithmetic():
    hedge = HedgeState(tiny_theta(0.0))
    for part in hedge.importance.values():
        part[...] = 0.5
    pull = theta_views(hedge.pull(tiny_params(2.0), strength=1.0), 3, 2)
    assert pull["w_out"][0, 0] == pytest.approx(1.0)
    assert not hedge.pull(tiny_params(2.0), strength=0.0).any()


def test_pull_demands_resize_after_structural_change():
    net = Network(3, 2, 2, np.random.default_rng(0))
    hedge = HedgeState.for_network(net)
    net.add_nodes(1, np.random.default_rng(1))
    with pytest.raises(ValueError, match="resize"):
        hedge.pull(net.params, strength=1.0)


def test_pull_and_refresh_leave_accumulators_untouched():
    rng = np.random.default_rng(2)
    net = Network(4, 2, 3, rng)
    hedge = HedgeState.for_network(net)
    for _ in range(5):
        _, grads = net.discriminative_step(rng.random(4), np.eye(2)[0], 0.05)
        hedge.record_step(0.05, grads)
    hedge.set_anchor(net.params)
    snapshot = {k: v.copy() for k, v in hedge.loss_drop.items()}
    moves = {k: v.copy() for k, v in hedge.movement.items()}
    steps = hedge.steps
    for _ in range(10):  # pseudo-label-style traffic: scoring only
        hedge.refresh_importance()
        hedge.pull(net.params, strength=0.7)
    assert hedge.steps == steps
    for key in snapshot:
        assert np.array_equal(snapshot[key], hedge.loss_drop[key])
        assert np.array_equal(moves[key], hedge.movement[key])


def test_grow_hidden_anchors_fresh_units_at_initial_values():
    rng = np.random.default_rng(3)
    net = Network(3, 2, 2, rng)
    hedge = HedgeState.for_network(net)
    hedge.loss_drop["w_in"][:] = 1.0
    net.add_nodes(2, rng)
    hedge.grow_hidden(net.params)
    assert hedge.anchor["w_in"].shape == (4, 3)
    assert np.array_equal(hedge.anchor["w_in"][2:], net.w_in[2:])
    assert not hedge.importance["w_in"][2:].any()
    assert not hedge.loss_drop["w_in"][2:].any()
    assert hedge.loss_drop["w_in"][:2].all()
    # pull works again after the resize
    hedge.pull(net.params, strength=1.0)


def test_prune_hidden_drops_matching_rows():
    net = Network(3, 2, 4, np.random.default_rng(4))
    hedge = HedgeState.for_network(net)
    hedge.movement["b_in"][:] = [1.0, 2.0, 3.0, 4.0]
    keep = np.array([0, 2])
    net.prune_nodes([1, 3])
    hedge.prune_hidden(keep)
    assert hedge.movement["b_in"].tolist() == [1.0, 3.0]
    hedge.pull(net.params, strength=1.0)


def importance_from_scratch(hedge):
    """The normalised importance recomputed from copies of the accumulators."""
    raw, total_sq = {}, 0.0
    for key in THETA_KEYS:
        value = hedge.loss_drop[key].copy() / (hedge.movement[key].copy() ** 2 + hedge.eps)
        raw[key] = value
        total_sq += float(np.sum(value * value))
    norm = math.sqrt(total_sq)
    return {key: np.zeros_like(value) if norm == 0.0 else value / norm
            for key, value in raw.items()}


def test_cached_importance_equals_recomputation_after_mixed_changes():
    rng = np.random.default_rng(5)
    net = Network(4, 3, 3, rng)
    hedge = HedgeState.for_network(net)
    ops = rng.choice(["record", "grow", "prune", "refresh"], size=400, p=[0.3, 0.1, 0.2, 0.4])
    # every kind of change is followed by a refresh at least once
    ops = np.concatenate([["refresh", "grow", "refresh", "record", "refresh",
                           "prune", "refresh", "refresh"], ops])
    for op in ops:
        if op == "record":
            _, grads = net.discriminative_step(rng.random(4), np.eye(3)[rng.integers(3)], 0.1)
            hedge.record_step(0.1, grads)
        elif op == "grow" and net.n_hidden < 12:
            net.add_nodes(int(rng.integers(1, 3)), rng)
            hedge.grow_hidden(net.params)
        elif op == "prune" and net.n_hidden > 1:
            doomed = [int(rng.integers(net.n_hidden))]
            keep = np.setdiff1d(np.arange(net.n_hidden), doomed)
            net.prune_nodes(doomed)
            hedge.prune_hidden(keep)
        elif op == "refresh":
            hedge.refresh_importance()
            expected = importance_from_scratch(hedge)
            for key in THETA_KEYS:
                assert np.array_equal(hedge.importance[key], expected[key]), (op, key)


def test_flat_steps_and_hedge_equal_their_per_key_forms():
    # The per-parameter arithmetic that the flat vectors replaced, run in
    # lockstep with them over labelled steps, hedged pseudo steps, growth and
    # pruning; every store must agree bit for bit after every operation.
    rng = np.random.default_rng(11)
    net = Network(4, 3, 3, rng)
    hedge = HedgeState.for_network(net)
    ref = {key: value.copy() for key, value in net.theta().items()}
    anchor = {key: value.copy() for key, value in ref.items()}
    importance = {key: np.zeros_like(value) for key, value in ref.items()}
    loss_drop = {key: np.zeros_like(value) for key, value in ref.items()}
    movement = {key: np.zeros_like(value) for key, value in ref.items()}
    hidden_keys = ("w_in", "b_in", "w_out")
    ops = rng.choice(["label", "pseudo", "grow", "prune"], size=400, p=[0.35, 0.35, 0.15, 0.15])
    counts = dict.fromkeys(["label", "pseudo", "grow", "prune"], 0)
    for op in ops:
        x, target = rng.random(4), np.eye(3)[rng.integers(3)]
        lr = float(rng.uniform(0.01, 0.5))
        if op == "label":
            for _ in range(2):  # the true label and its augmented copy
                _, flat = net.discriminative_step(x, target, lr)
                hedge.record_step(lr, flat)
                grads = theta_views(flat, 4, 3)
                for key in THETA_KEYS:
                    ref[key] -= lr * grads[key]
                    delta = (-lr) * grads[key]
                    loss_drop[key] -= delta * grads[key]
                    movement[key] += np.abs(delta)
            hedge.set_anchor(net.params)
            anchor = {key: value.copy() for key, value in ref.items()}
        elif op == "pseudo":
            strength = float(rng.random())
            hedge.refresh_importance()
            net.predict_proba(x)
            addend = hedge.pull(net.params, strength)
            _, flat = net.discriminative_step(x, target, lr, grad_addend=addend)
            raw = {key: loss_drop[key] / (movement[key] ** 2 + hedge.eps) for key in THETA_KEYS}
            total_sq = 0.0
            for key in THETA_KEYS:
                total_sq += float(np.sum(raw[key] * raw[key]))
            norm = math.sqrt(total_sq)
            importance = {key: np.zeros_like(value) if norm == 0.0 else value / norm
                          for key, value in raw.items()}
            grads, named_addend = theta_views(flat, 4, 3), theta_views(addend, 4, 3)
            for key in THETA_KEYS:
                pull = strength * importance[key] * (ref[key] - anchor[key])
                assert named_addend[key].tobytes() == pull.tobytes(), key
                ref[key] -= lr * (grads[key] + pull)
            for key in THETA_KEYS:
                assert hedge.importance[key].tobytes() == importance[key].tobytes(), key
        elif op == "grow" and net.n_hidden < 10:
            prev = net.n_hidden
            net.add_nodes(int(rng.integers(1, 3)), rng)
            hedge.grow_hidden(net.params)
            for key in hidden_keys:
                fresh = net.theta()[key][prev:]
                ref[key] = np.concatenate([ref[key], fresh])
                anchor[key] = np.concatenate([anchor[key], fresh])
                for store in (importance, loss_drop, movement):
                    store[key] = np.concatenate([store[key], np.zeros_like(fresh)])
        elif op == "prune" and net.n_hidden > 1:
            doomed = [int(rng.integers(net.n_hidden))]
            keep = np.setdiff1d(np.arange(net.n_hidden), doomed)
            net.prune_nodes(doomed)
            hedge.prune_hidden(keep)
            for key in hidden_keys:
                for store in (ref, anchor, importance, loss_drop, movement):
                    store[key] = store[key][keep]
        else:
            continue
        counts[op] += 1
        for key in THETA_KEYS:
            assert net.theta()[key].tobytes() == ref[key].tobytes(), (op, key)
            assert hedge.anchor[key].tobytes() == anchor[key].tobytes(), (op, key)
            assert hedge.loss_drop[key].tobytes() == loss_drop[key].tobytes(), (op, key)
            assert hedge.movement[key].tobytes() == movement[key].tobytes(), (op, key)
    assert min(counts.values()) >= 30, counts


# -- augmentation ----------------------------------------------------------------------

def test_augment_keeps_label_and_range():
    rng = np.random.default_rng(0)
    x = rng.random(10)
    jittered, label = augment(x, 3, rng, mode="tabular")
    assert label == 3
    assert jittered.shape == x.shape
    assert np.all(jittered >= 0.0) and np.all(jittered <= 1.0)


def test_augment_noise_is_zero_mean():
    rng = np.random.default_rng(1)
    x = np.full(4, 0.5)
    draws = np.array([augment(x, 0, rng, mode="tabular")[0] for _ in range(10_000)])
    std_err = math.sqrt(1e-3) / math.sqrt(10_000 * 4)
    assert np.abs(draws.mean(axis=(0, 1)) - 0.5) < 3 * std_err * 2


def test_augment_image_noise_scale():
    # half-normal mean: (33/255) * sqrt(2/pi) ~ 26.3 grey levels of 255
    rng = np.random.default_rng(2)
    x = np.full(8, 0.5)
    deltas = np.concatenate(
        [np.abs(augment(x, 0, rng, mode="image")[0] - x) for _ in range(4000)])
    expected = (33.0 / 255.0) * math.sqrt(2.0 / math.pi)
    assert deltas.mean() == pytest.approx(expected, rel=0.03)
    assert deltas.mean() * 255 == pytest.approx(26.3, rel=0.05)


def test_augment_clips_at_the_borders():
    rng = np.random.default_rng(3)
    x = np.zeros(50)
    jittered, _ = augment(x, 0, rng, mode="image")
    assert np.all(jittered >= 0.0)
    assert (jittered == 0.0).sum() > 10  # negative jitter clipped away


def test_augment_equals_clipped_reference():
    x = np.linspace(0.0, 1.0, 50)
    jittered, _ = augment(x, 0, np.random.default_rng(4), mode="image")
    noise = np.random.default_rng(4).normal(0.0, 33.0 / 255.0, x.shape)
    assert np.array_equal(jittered, np.clip(x + noise, 0.0, 1.0))


def test_augment_rejects_unknown_mode():
    with pytest.raises(ValueError):
        augment(np.zeros(3), 0, np.random.default_rng(0), mode="audio")


# -- containment of adversarial pseudo labels ----------------------------------------------

def theta_gap(net, anchor):
    return math.sqrt(sum(float(np.sum((net.theta()[k] - anchor[k]) ** 2))
                         for k in anchor))


def test_hedge_contains_flipped_pseudo_labels():
    lr = 0.05
    means = np.array([[0.2] * 8, [0.8] * 8])
    for seed in range(1, 6):
        rng = np.random.default_rng(seed)
        net = Network(8, 2, 6, rng)
        hedge = HedgeState.for_network(net)
        for _ in range(300):
            y = int(rng.integers(0, 2))
            x = np.clip(means[y] + rng.normal(0.0, 0.1, 8), 0.0, 1.0)
            _, grads = net.discriminative_step(x, np.eye(2)[y], lr)
            hedge.record_step(lr, grads)
        hedge.set_anchor(net.params)
        hedge.refresh_importance()

        flips = [(int(rng.integers(0, 2)), rng.normal(0.0, 0.1, 8)) for _ in range(50)]
        start = copy.deepcopy(net)
        for y, noise in flips:
            x = np.clip(means[y] + noise, 0.0, 1.0)
            addend = hedge.pull(net.params, strength=1.0)
            net.discriminative_step(x, np.eye(2)[1 - y], lr, grad_addend=addend)
        hedged = theta_gap(net, hedge.anchor)

        net = copy.deepcopy(start)
        for y, noise in flips:
            x = np.clip(means[y] + noise, 0.0, 1.0)
            net.discriminative_step(x, np.eye(2)[1 - y], lr)
        plain = theta_gap(net, hedge.anchor)

        assert hedged < plain, f"seed {seed}: {hedged:.6f} !< {plain:.6f}"
