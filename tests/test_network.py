import ast
import copy
import math
import pathlib
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import parsnet
from parsnet import agmm, network, slash
from parsnet.network import (THETA_KEYS, Network, check_sample, flatten_theta, mask_input,
                             normalized_top2, sigmoid, softmax, theta_views)
from parsnet.stream import RunConfig, StreamLearner

from helpers import fd_gradient, relative_gap

# -- gradient-check fixtures ----------------------------------------------------

def named(net, flat):
    """The segments of a flat classifier vector of ``net``, by name."""
    return theta_views(flat, net.n_inputs, net.n_classes)


def random_net(rng, n_inputs=5, n_classes=3, n_hidden=3, jitter=0.5):
    net = Network(n_inputs, n_classes, n_hidden, rng)
    # non-trivial biases so the gradient check is not anchored at zero
    net.b_in += rng.normal(0.0, jitter, net.b_in.shape)
    net.d += rng.normal(0.0, jitter, net.d.shape)
    net.c_out += rng.normal(0.0, jitter, net.c_out.shape)
    return net


# -- initialisation ------------------------------------------------------------

def test_init_shapes_start_with_one_hidden_unit():
    net = StreamLearner(784, 10, RunConfig()).net
    assert net.w_in.shape == (1, 784)
    assert net.w_out.shape == (1, 10)
    assert net.b_in.shape == (1,) and net.d.shape == (784,) and net.c_out.shape == (10,)


def test_init_biases_zero():
    net = Network(6, 3, n_hidden=4, rng=np.random.default_rng(1))
    assert not net.b_in.any() and not net.d.any() and not net.c_out.any()


def test_init_seed_determinism():
    one = Network(5, 2, 3, np.random.default_rng(42))
    two = Network(5, 2, 3, np.random.default_rng(42))
    assert np.array_equal(one.w_in, two.w_in)
    assert np.array_equal(one.w_out, two.w_out)


def test_init_validates():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        Network(0, 2, 1, rng)
    with pytest.raises(ValueError):
        Network(3, 1, 1, rng)


# -- masking ---------------------------------------------------------------------

def test_mask_zero_fraction_is_identity():
    x = np.arange(8, dtype=float)
    assert mask_input(x, 0.0, np.random.default_rng(0)) is x


def test_mask_floor_cardinality():
    x = np.ones(10)
    masked = mask_input(x, 0.1, np.random.default_rng(0))
    assert int((masked == 0).sum()) == 1
    assert int((mask_input(np.ones(8), 0.1, np.random.default_rng(0)) == 0).sum()) == 0


def test_mask_varies_with_seed_but_cardinality_fixed():
    x = np.ones(20)
    hits = {tuple(np.flatnonzero(mask_input(x, 0.25, np.random.default_rng(s)) == 0))
            for s in range(6)}
    assert len(hits) > 1
    assert all(len(h) == 5 for h in hits)


# -- forward pass ------------------------------------------------------------------

def test_forward_all_zero_parameters_is_symmetric():
    net = Network(4, 5, 2, np.random.default_rng(0))
    net.w_in[:] = 0.0
    net.w_out[:] = 0.0
    x = np.array([0.1, 0.9, 0.4, 0.2])
    assert net.predict_proba(x) == pytest.approx([0.2] * 5)
    # With w_in = 0 every hidden unit and every reconstruction is sigmoid(0).
    error, grads = net.generative_gradients(x, x)
    recon_diff = 0.5 - x
    assert error == pytest.approx(0.5 * float(recon_diff @ recon_diff))
    assert grads["d"] == pytest.approx(recon_diff * 0.25)
    assert grads["w_in"] == pytest.approx(0.5 * np.tile(grads["d"], (2, 1)))


def test_forward_probs_sum_to_one():
    rng = np.random.default_rng(9)
    for _ in range(25):
        net = random_net(rng, jitter=2.0)
        x = rng.normal(size=5)
        probs = net.predict_proba(x)
        assert abs(probs.sum() - 1.0) <= 1e-9
        assert np.all(probs > 0.0) and np.all(probs < 1.0)
        assert np.abs(net.predict_batch(x[None, :]).sum(axis=1) - 1.0).max() <= 1e-9


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_check_sample_rejects_a_non_finite_entry_at_every_position(bad):
    for n in (1, 2, 3, 4, 17, 784):
        for position in range(n):
            x = np.full(n, 0.5)
            x[position] = bad
            with pytest.raises(ValueError, match="^sample contains non-finite values$"):
                check_sample(x, n)
        with pytest.raises(ValueError, match="^sample contains non-finite values$"):
            check_sample([bad] * n, n)


def test_check_sample_accepts_every_finite_extreme():
    tiny = np.finfo(float).smallest_subnormal
    extremes = np.array([1e308, -1e308, np.finfo(float).max, -np.finfo(float).max,
                         tiny, -tiny, np.finfo(float).tiny / 2, 0.0, -0.0])
    assert check_sample(extremes, extremes.shape[0]).tobytes() == extremes.tobytes()
    assert check_sample(extremes.tolist(), extremes.shape[0]).tobytes() == extremes.tobytes()
    for value in extremes:
        assert check_sample(np.full(5, value), 5).tobytes() == np.full(5, value).tobytes()


# -- gradient checks against the oracle -----------------------------------------------

def test_generative_gradients_match_finite_differences():
    rng = np.random.default_rng(12)
    for trial in range(5):
        net = random_net(rng)
        x = rng.random(5)
        masked = x.copy()
        masked[rng.integers(0, 5)] = 0.0
        _, grads = net.generative_gradients(x, masked)
        for name, param in (("w_in", net.w_in), ("b_in", net.b_in), ("d", net.d)):
            numeric = fd_gradient(lambda: net.generative_gradients(x, masked)[0], param)
            assert relative_gap(grads[name], numeric) <= 1e-5, (trial, name)


def cross_entropy(net, x, label):
    """The classifier's loss on ``x``: ``-log`` of its probability of ``label``."""
    return -math.log(net.predict_proba(x)[label])


def test_discriminative_gradients_match_finite_differences():
    rng = np.random.default_rng(13)
    for trial in range(5):
        net = random_net(rng)
        x = rng.random(5)
        label = int(rng.integers(0, 3))
        grads = named(net, net.discriminative_step(x, np.eye(3)[label], 0.0))
        for name in ("w_in", "b_in", "w_out", "c_out"):
            param = getattr(net, name)
            numeric = fd_gradient(lambda: cross_entropy(net, x, label), param)
            assert relative_gap(grads[name], numeric) <= 1e-5, (trial, name)


# -- SGD steps --------------------------------------------------------------------------

def test_generative_step_zero_lr_keeps_parameters():
    rng = np.random.default_rng(2)
    net = random_net(rng)
    before = copy.deepcopy(net.__dict__)
    error = net.generative_step(rng.random(5), 0.0, 0.0, rng)
    assert error > 0.0
    for key in ("w_in", "b_in", "d", "w_out", "c_out"):
        assert np.array_equal(before[key], getattr(net, key))


def test_discriminative_step_zero_lr_keeps_parameters():
    rng = np.random.default_rng(3)
    net = random_net(rng)
    before = copy.deepcopy(net.__dict__)
    net.discriminative_step(rng.random(5), np.eye(3)[0], lr=0.0)
    for key in ("w_in", "b_in", "w_out", "c_out"):
        assert np.array_equal(before[key], getattr(net, key))


def test_step_with_positive_lr_moves_parameters():
    rng = np.random.default_rng(14)
    for _ in range(10):
        net = random_net(rng)
        x, target = rng.random(5), np.eye(3)[1]
        before = {k: v.copy() for k, v in net.theta().items()}
        net.discriminative_step(x, target, lr=0.01)
        assert any(not np.array_equal(before[k], net.theta()[k]) for k in before)


def test_generative_training_reduces_error():
    rng = np.random.default_rng(21)
    net = Network(6, 2, 3, rng)
    x = rng.random(6)
    checkpoints = []
    for step in range(1000):
        err = net.generative_step(x, 0.05, 0.0, rng)
        if step % 100 == 0:
            checkpoints.append(err)
    assert all(b < a for a, b in zip(checkpoints, checkpoints[1:]))


def test_memorized_pattern_reconstructs_better_than_orthogonal():
    rng = np.random.default_rng(8)
    net = Network(4, 2, 3, rng)
    pattern = np.array([1.0, 0.0, 1.0, 0.0])
    other = np.array([0.0, 1.0, 0.0, 1.0])
    for _ in range(500):
        net.generative_step(pattern, 0.1, 0.0, rng)
    err_pattern = net.generative_step(pattern, 0.0, 0.0, rng)
    err_other = net.generative_step(other, 0.0, 0.0, rng)
    assert err_pattern < err_other


def test_pull_only_step_moves_toward_anchor():
    rng = np.random.default_rng(17)
    net = random_net(rng)
    x = rng.random(5)
    # a target equal to the current prediction zeroes the data gradient
    target = net.predict_proba(x)
    anchor = {k: v - 1.0 for k, v in net.theta().items()}
    addend = net.params - flatten_theta(**anchor)  # importance 1, strength 1
    before = {k: np.linalg.norm(net.theta()[k] - anchor[k]) for k in anchor}
    net.discriminative_step(x, target, lr=0.1, grad_addend=addend)
    after = {k: np.linalg.norm(net.theta()[k] - anchor[k]) for k in anchor}
    assert all(after[k] < before[k] for k in anchor)


@pytest.mark.parametrize("mask_fraction", [0.0, 0.4])
def test_generative_step_is_sgd_on_its_gradients(mask_fraction):
    # bit-for-bit: param - lr * grad, with the same mask drawn from a twin generator
    rng = np.random.default_rng(31)
    net = random_net(rng, n_inputs=6, n_hidden=4)
    for seed in range(20):
        x, lr = rng.random(6), 0.05
        masked = mask_input(x, mask_fraction, np.random.default_rng(seed))
        error, grads = net.generative_gradients(x, masked)
        expected = {key: getattr(net, key) - lr * grads[key] for key in grads}
        assert net.generative_step(x, lr, mask_fraction, np.random.default_rng(seed)) == error
        for key, value in expected.items():
            assert np.array_equal(getattr(net, key), value), key


@pytest.mark.parametrize("with_addend", [False, True])
def test_discriminative_step_is_sgd_on_its_gradients(with_addend):
    rng = np.random.default_rng(32)
    net = random_net(rng)
    for _ in range(20):
        x, target, lr = rng.random(5), np.eye(3)[rng.integers(3)], 0.05
        addend = ({key: rng.normal(0.0, 1.0, value.shape) for key, value in net.theta().items()}
                  if with_addend else None)
        flat_grads = net.discriminative_step(x, target, 0.0)
        grads = named(net, flat_grads)
        # The step's one vector update equals the per-parameter updates.
        expected = {key: net.theta()[key] - lr * (grads[key] + addend[key] if addend else grads[key])
                    for key in THETA_KEYS}
        step_grads = net.discriminative_step(
            x, target, lr, grad_addend=flatten_theta(**addend) if addend else None)
        assert np.array_equal(step_grads, flat_grads)
        for key, value in expected.items():
            assert np.array_equal(net.theta()[key], value), key


def test_weight_gradients_equal_outer_products():
    rng = np.random.default_rng(33)
    net = random_net(rng)
    x, masked = rng.random(5), rng.random(5)
    hidden = sigmoid(net.w_in @ x + net.b_in)
    grads = named(net, net.discriminative_step(x, np.eye(3)[2], 0.0))
    assert np.array_equal(grads["w_in"], np.outer(grads["b_in"], x))
    assert np.array_equal(grads["w_out"], np.outer(hidden, grads["c_out"]))
    _, grads = net.generative_gradients(x, masked)
    hidden = sigmoid(net.w_in @ masked + net.b_in)
    assert np.array_equal(grads["w_in"],
                          np.outer(hidden, grads["d"]) + np.outer(grads["b_in"], masked))


def test_rank1_gradients_equal_the_broadcast_products_on_samples_with_zeros():
    # The weight gradients are BLAS rank-1 products.  They equal the broadcast
    # products under ==, and bit for bit wherever the product is not zero; a
    # zero product may come out as +0.0 where the broadcast gives -0.0.
    rng = np.random.default_rng(34)
    net = random_net(rng, n_hidden=6)
    zeros = 0
    for _ in range(50):
        x = rng.random(5) * (rng.random(5) < 0.6)
        masked = x * (rng.random(5) < 0.7)
        hidden = sigmoid(net.w_in.dot(x) + net.b_in)
        grads = named(net, net.discriminative_step(x, np.eye(3)[rng.integers(3)], 0.05))
        _, generative = net.generative_gradients(x, masked)
        masked_hidden = sigmoid(net.w_in.dot(masked) + net.b_in)
        pairs = [(grads["w_in"], grads["b_in"][:, None] * x),
                 (grads["w_out"], hidden[:, None] * grads["c_out"]),
                 (generative["w_in"], masked_hidden[:, None] * generative["d"]
                  + generative["b_in"][:, None] * masked)]
        for found, broadcast in pairs:
            assert (found == broadcast).all()
            nonzero = broadcast != 0.0
            assert found[nonzero].tobytes() == broadcast[nonzero].tobytes()
            zeros += int(np.count_nonzero(~nonzero))
    assert zeros > 200


@pytest.mark.parametrize("between", ["nothing", "generative_step", "add_nodes", "prune_nodes",
                                     "another sample"])
def test_step_after_predict_proba_equals_the_step_on_a_fresh_copy(between):
    # predict_proba's forward pass may serve the next step on the same sample
    # only while no parameter has changed since.
    rng = np.random.default_rng(41)
    for trial in range(10):
        net = random_net(rng, n_hidden=4)
        twin = copy.deepcopy(net)
        x, target, seed = rng.random(5), np.eye(3)[rng.integers(3)], 100 + trial
        net.predict_proba(rng.random(5) if between == "another sample" else x)
        for model in (net, twin):
            change = np.random.default_rng(seed)
            if between == "generative_step":
                model.generative_step(x, 0.3, 0.2, change)
            elif between == "add_nodes":
                model.add_nodes(2, change)
            elif between == "prune_nodes":
                model.prune_nodes([1])
        grads = net.discriminative_step(x, target, 0.2)
        assert np.array_equal(grads, twin.discriminative_step(x, target, 0.2)), trial
        for key, value in twin.theta().items():
            assert np.array_equal(net.theta()[key], value), (trial, key)


def test_params_is_one_vector_behind_the_named_views():
    rng = np.random.default_rng(42)
    net = random_net(rng, n_hidden=3)
    for model in (net, copy.deepcopy(net), pickle.loads(pickle.dumps(net))):
        assert np.array_equal(flatten_theta(**model.theta()), model.params)
        for key, value in model.theta().items():
            assert np.shares_memory(value, model.params), key
            assert value.flags.c_contiguous, key
    net.add_nodes(2, rng)
    net.prune_nodes([0])
    assert named(net, net.params)["w_in"].shape == (4, 5)
    assert all(np.shares_memory(value, net.params) for value in net.theta().values())


def test_predict_batch_requires_a_batch_of_the_inputs():
    net = Network(3, 2, 3, np.random.default_rng(44))
    for bad in (np.full(3, 0.5), np.full((2, 4), 0.5), np.full((2, 3, 1), 0.5)):
        with pytest.raises(ValueError, match=re.escape(f"(n, 3), got {np.shape(bad)}")):
            net.predict_batch(bad)
    assert net.predict_batch(np.full((2, 3), 0.5)).shape == (2, 2)


def test_dot_equals_matmul_on_every_product_shape_bit_for_bit():
    # Every product the learner takes, on its own operands: views into
    # ``params``, ``w_in.T``, the mixture's stacks and ``predict_batch``'s batches.
    rng = np.random.default_rng(21)

    def draw(*shape):
        return rng.normal(0.0, 1.0, shape) * 10.0 ** rng.uniform(-3.0, 3.0, shape)

    for _ in range(400):
        n_inputs, n_hidden = int(rng.integers(1, 21)), int(rng.integers(1, 301))
        n_classes, k = int(rng.integers(2, 11)), int(rng.integers(1, 9))
        net = Network(n_inputs, n_classes, n_hidden, rng)
        net.params[:] = draw(net.params.shape[0])
        x, hidden, probs = draw(n_inputs), draw(n_hidden), draw(n_classes)
        pairs = [
            (net.w_in, x), (hidden, net.w_out), (hidden, net.w_in), (x, x),
            (net.w_out, probs), (probs, probs),
            (draw(int(rng.integers(1, 601)), n_inputs), net.w_in.T),
            (draw(int(rng.integers(1, 601)), n_hidden), net.w_out),
            (draw(k, n_inputs), net.w_in.T), (draw(k), draw(k, n_hidden)),
            (hidden * hidden, net.w_out), (hidden * hidden, net.w_in),
            (draw(k), draw(k, n_classes)),
        ]
        for a, b in pairs:
            product = np.asarray(a.dot(b))
            expected = np.asarray(a @ b)
            assert product.shape == expected.shape
            assert product.tobytes() == expected.tobytes(), (a.shape, b.shape)


def package_sites(matches):
    """``file:line`` of every syntax node of the package that ``matches``."""
    sources = sorted(pathlib.Path(parsnet.__file__).parent.glob("*.py"))
    assert len(sources) >= 7
    return [f"{path.name}:{node.lineno}" for path in sources
            for node in ast.walk(ast.parse(path.read_text())) if matches(node)]


def test_the_package_uses_no_matmul_operator():
    # ``@`` goes through the matmul ufunc's dispatch; ``.dot`` calls the same
    # BLAS routine directly (see the network docstring).
    assert package_sites(lambda node: isinstance(getattr(node, "op", None), ast.MatMult)) == []


def test_the_package_calls_no_vstack_append_or_split():
    # These wrap ``np.concatenate`` and slicing in Python; the structural
    # changes build and cut the flat vector and the mixture rows directly.
    assert package_sites(lambda node: isinstance(node, ast.Attribute)
                         and node.attr in ("vstack", "append", "split")
                         and isinstance(node.value, ast.Name)
                         and node.value.id in ("np", "numpy")) == []


# -- structural changes --------------------------------------------------------------------

def test_add_nodes_counts():
    net = Network(4, 2, 1, np.random.default_rng(0))
    net.add_nodes(3, np.random.default_rng(1))
    assert net.n_hidden == 4


def test_add_nodes_preserves_old_units():
    rng = np.random.default_rng(5)
    net = random_net(rng, n_hidden=2)
    w_in, b_in, w_out = net.w_in.copy(), net.b_in.copy(), net.w_out.copy()
    net.add_nodes(3, rng)
    assert np.array_equal(net.w_in[:2], w_in)
    assert np.array_equal(net.b_in[:2], b_in)
    assert np.array_equal(net.w_out[:2], w_out)


def test_add_nodes_with_zeroed_output_rows_keeps_predictions():
    rng = np.random.default_rng(6)
    net = random_net(rng)
    x = rng.random(5)
    before = net.predict_proba(x)
    net.add_nodes(2, rng)
    net.w_out[-2:] = 0.0
    assert net.predict_proba(x) == pytest.approx(before, abs=1e-12)


def test_prune_single_inactive_node():
    net = Network(3, 2, 2, np.random.default_rng(0))
    net.prune_nodes([1])
    assert net.n_hidden == 1


def test_prune_zero_contribution_node_keeps_predictions():
    rng = np.random.default_rng(7)
    net = random_net(rng, n_hidden=4)
    net.w_out[2] = 0.0
    xs = rng.random((10, 5))
    before = net.predict_batch(xs)
    net.prune_nodes([2])
    assert net.predict_batch(xs) == pytest.approx(before, abs=1e-12)


def test_prune_preserves_survivor_order():
    rng = np.random.default_rng(15)
    net = random_net(rng, n_hidden=5)
    rows = net.w_in.copy()
    net.prune_nodes([1, 3])
    assert np.array_equal(net.w_in, rows[[0, 2, 4]])


def test_prune_returns_the_old_indices_of_the_survivors():
    # Flat positions: w_in at 0-14, b_in at 15-19, w_out at 20-29, c_out at 30-31.
    net = Network(3, 2, 5, np.random.default_rng(0))
    old = net.params.copy()
    kept = net.prune_nodes([3, 1, 3])  # units 0, 2 and 4 survive
    assert kept.tolist() == [0, 1, 2, 6, 7, 8, 12, 13, 14, 15, 17, 19,
                             20, 21, 24, 25, 28, 29, 30, 31]
    assert net.params.tobytes() == old[kept].tobytes()
    assert net.prune_nodes([]).tolist() == list(range(20))
    assert net.n_hidden == 3


@settings(max_examples=200, deadline=None)
@given(n_inputs=st.integers(1, 8), n_classes=st.integers(2, 6), n_hidden=st.integers(1, 10),
       count=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_add_and_prune_return_the_positions_of_the_carried_and_kept_entries(
        n_inputs, n_classes, n_hidden, count, seed, data):
    net = Network(n_inputs, n_classes, n_hidden, np.random.default_rng(seed))
    old = net.params.copy()
    carried = net.add_nodes(count, np.random.default_rng(seed))
    new = net.params
    assert new[carried].tobytes() == old.tobytes()
    # Every other entry belongs to a fresh unit: Xavier rows and a zero bias,
    # drawn like the network draws them.
    twin, total = np.random.default_rng(seed), n_hidden + count
    bound_in, bound_out = np.sqrt(6.0 / (n_inputs + total)), np.sqrt(6.0 / (total + n_classes))
    fresh = (twin.uniform(-bound_in, bound_in, (count, n_inputs)), np.zeros(count),
             twin.uniform(-bound_out, bound_out, (count, n_classes)))
    others = np.ones(new.shape[0], dtype=bool)
    others[carried] = False
    assert new[others].tobytes() == np.concatenate(fresh, axis=None).tobytes()
    named = theta_views(new, n_inputs, n_classes)
    for key, rows in zip(("w_in", "b_in", "w_out"), fresh):
        assert named[key][n_hidden:].tobytes() == rows.tobytes(), key

    doomed = data.draw(st.lists(st.integers(0, total - 1), max_size=total - 1, unique=True))
    survivors = np.setdiff1d(np.arange(total), doomed)
    grown = new.copy()
    kept = net.prune_nodes(doomed)
    assert net.params.tobytes() == grown[kept].tobytes()
    before, after = theta_views(grown, n_inputs, n_classes), net.theta()
    for key in ("w_in", "b_in", "w_out"):
        assert after[key].tobytes() == before[key][survivors].tobytes(), key
    assert after["c_out"].tobytes() == before["c_out"].tobytes()


def test_prune_everything_rejected():
    net = Network(3, 2, 2, np.random.default_rng(0))
    with pytest.raises(ValueError):
        net.prune_nodes([0, 1])


@pytest.mark.parametrize("indexes", [[1.7], [0, 1.7], [1.0], [True], np.array([0.5])])
def test_prune_refuses_a_non_integer_index_before_any_change(indexes):
    net = Network(3, 2, 3, np.random.default_rng(0))
    params = net.params.copy()
    with pytest.raises(ValueError, match="must be integers"):
        net.prune_nodes(indexes)
    assert net.params.tobytes() == params.tobytes() and net.n_hidden == 3


def test_add_then_prune_new_nodes_is_identity():
    rng = np.random.default_rng(16)
    net = random_net(rng, n_hidden=3)
    snapshot = copy.deepcopy(net.__dict__)
    net.add_nodes(4, rng)
    net.prune_nodes([3, 4, 5, 6])
    for key in ("w_in", "b_in", "d", "w_out", "c_out"):
        assert np.array_equal(snapshot[key], getattr(net, key))


# -- top-2 confidence -------------------------------------------------------------------------

def test_top2_uniform_two_classes():
    assert normalized_top2(np.array([0.5, 0.5])) == pytest.approx(0.5)


def test_top2_three_class_example():
    assert normalized_top2(np.array([0.7, 0.2, 0.1])) == pytest.approx(0.7 / 0.9)


def test_top2_one_hot():
    assert normalized_top2(np.array([0.0, 1.0, 0.0])) == pytest.approx(1.0)


def test_top2_needs_two_classes():
    with pytest.raises(ValueError):
        normalized_top2(np.array([1.0]))


@settings(max_examples=300, deadline=None)
@given(probs=st.integers(2, 10).flatmap(lambda k: st.one_of(
    arrays(float, k, elements=st.floats(0.0, 1.0, exclude_min=True)),
    # few distinct values, so ties between the two largest are common
    arrays(float, k, elements=st.sampled_from([0.0, 0.125, 0.25, 0.5, 1.0])).filter(
        lambda p: p.max() > 0.0))))
def test_top2_equals_the_partition_form_bit_for_bit(probs):
    top = np.partition(probs, -2)[-2:]
    expected = float(top[1] / (top[0] + top[1]))
    assert np.float64(normalized_top2(probs)).tobytes() == np.float64(expected).tobytes()


@settings(max_examples=100, deadline=None)
@given(raw=arrays(float, 4, elements=st.floats(1e-6, 1.0)),
       order=st.permutations(range(4)))
def test_top2_permutation_invariant(raw, order):
    probs = raw / raw.sum()
    assert normalized_top2(probs) == pytest.approx(normalized_top2(probs[list(order)]))
    assert 0.5 <= normalized_top2(probs) <= 1.0


# -- numeric helpers ------------------------------------------------------------------------------

def test_sigmoid_saturates_without_overflow():
    values = sigmoid(np.array([-1e9, 0.0, 1e9]))
    assert 0.0 < values[0] < 1e-12
    assert values[1] == 0.5
    assert 1.0 - 1e-12 < values[2] < 1.0


def test_sigmoid_equals_clipped_reference():
    z = np.concatenate([np.linspace(-40.0, 40.0, 801), [-np.inf, np.inf, -30.0, 30.0],
                        np.random.default_rng(3).uniform(-40.0, 40.0, 20_195)])
    reference = 1.0 / (1.0 + np.exp(-np.clip(z, -30.0, 30.0)))
    assert np.array_equal(sigmoid(z), reference)
    # The read-only 0-d constants give the Python-float form's bits, in 1-d and 2-d.
    float_form = np.reciprocal(1.0 + np.exp(-np.minimum(np.maximum(z, -30.0), 30.0)))
    assert sigmoid(z).tobytes() == float_form.tobytes()
    assert sigmoid(z.reshape(2, -1)).tobytes() == float_form.tobytes()
    assert np.isnan(sigmoid(np.array([np.nan]))).all()


def test_shared_operand_constants_are_read_only():
    for constant in (network._ONE, network._LOW, network._HIGH):
        assert constant.shape == () and not constant.flags.writeable
        with pytest.raises(ValueError):
            constant[()] = 0.0


def test_every_shared_constant_is_read_only():
    found = 0
    for module in (network, agmm, slash):
        for name, value in vars(module).items():
            if isinstance(value, np.ndarray) and value.shape == ():
                found += 1
                assert not value.flags.writeable, (module.__name__, name)
                with pytest.raises(ValueError):
                    value[()] = 0.0
    assert found >= 9  # network 3, agmm 4, slash 2
    assert [float(c) for c in network.constants(1, -0.5, 1e-300)] == [1.0, -0.5, 1e-300]


@np.errstate(invalid="ignore")  # inf - inf, on purpose
def test_classify_softmax_equals_softmax_bit_for_bit():
    rng = np.random.default_rng(59)
    specials = np.array([np.nan, np.inf, -np.inf])
    for trial in range(3000):
        u, h, c = int(rng.integers(1, 8)), int(rng.integers(1, 60)), int(rng.integers(2, 10))
        net = Network(u, c, h, rng)
        net.w_out[:] = rng.normal(size=(h, c)) * 10.0 ** rng.uniform(-3.0, 3.0)
        net.c_out[:] = rng.normal(size=c) * 10.0 ** rng.uniform(-3.0, 3.0)
        if trial % 3 == 0:
            net.c_out[rng.integers(c, size=int(rng.integers(1, c + 1)))] = rng.choice(
                specials, size=1 if trial % 2 else None)
        hidden, probs = net._classify(rng.random(u))
        expected = softmax(hidden.dot(net.w_out) + net.c_out)
        assert probs.shape == expected.shape
        assert np.array_equal(np.isnan(probs), np.isnan(expected))
        assert probs[~np.isnan(probs)].tobytes() == expected[~np.isnan(expected)].tobytes()
    every_case = np.array([[np.nan, 1.0], [np.inf, 1.0], [-np.inf, 1.0], [-np.inf, -np.inf],
                           [np.inf, np.inf], [np.nan, np.inf]])
    net = Network(1, 2, 1, rng)
    net.w_out[:] = 0.0
    for logits in every_case:
        net.c_out[:] = logits
        _, probs = net._classify(np.zeros(1))
        assert np.array_equal(probs, softmax(logits), equal_nan=True), logits


def test_theta_bounds_are_the_ends_of_the_theta_views():
    rng = np.random.default_rng(61)
    for _ in range(500):
        u, h, c = int(rng.integers(1, 30)), int(rng.integers(1, 300)), int(rng.integers(2, 12))
        flat = np.arange(h * (u + 1 + c) + c, dtype=float)
        views = theta_views(flat, u, c)
        ends = [int(view.reshape(-1)[-1]) + 1 for view in views.values()]
        assert list(network.theta_bounds(flat.shape[0], u, c)) == ends
        with pytest.raises(ValueError, match="is no classifier layout"):
            network.theta_bounds(flat.shape[0] + 1, u, c)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(1)
    z = rng.normal(0.0, 50.0, (6, 4))
    rows = softmax(z)
    assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-12)
