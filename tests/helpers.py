"""Helpers that more than one test module uses, each defined once here."""

import math

import numpy as np

from parsnet.network import theta_views
from parsnet.stream import Batch, StreamLearner, normalize_batches


def fd_gradient(loss_fn, param, eps=1e-6):
    """Central differences of ``loss_fn`` with respect to ``param`` in place."""
    grad = np.zeros_like(param)
    flat, gflat = param.ravel(), grad.ravel()
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + eps
        high = loss_fn()
        flat[i] = keep - eps
        low = loss_fn()
        flat[i] = keep
        gflat[i] = (high - low) / (2.0 * eps)
    return grad


def relative_gap(analytic, numeric):
    scale = max(np.abs(numeric).max(), 1e-8)
    return float(np.abs(analytic - numeric).max() / scale)


def stored(hedge, name):
    """One of the hedge's flat stores by segment: views that read and write it."""
    return theta_views(getattr(hedge, "_" + name), hedge.n_inputs, hedge.n_classes)


def anchor_gap(net, anchor):
    """Euclidean distance of the network's classifier parameters from ``anchor``."""
    return math.sqrt(sum(float(np.sum((net.theta()[k] - anchor[k]) ** 2))
                         for k in anchor))


def frozen_after_first(config, scenario):
    """Batch accuracies of a learner that is trained on the first batch only.

    A fresh :class:`StreamLearner` on the :func:`normalize_batches` output
    predicts the first batch, trains on it, then only predicts: the
    frozen-after-warm-up baseline, scored test-then-train like
    ``prequential_run``.  The batches must hold finite rows only.
    """
    batches = normalize_batches(scenario.batches)
    learner = StreamLearner(batches[0].features.shape[1], scenario.num_classes, config)
    accuracies = []
    for index, batch in enumerate(batches):
        accuracies.append(float(np.mean(learner.predict(batch.features) == batch.truth)))
        if index == 0:
            learner.train_on_batch(batch.features, batch.labels)
    return accuracies


def drift_stream(n_batches, size, shift_at, seed):
    """Criterion-4 drift generator: class-aligned blobs over a thin uniform
    background whose means jump ~9 sigma to the outer diagonal at the shift
    batch."""
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
