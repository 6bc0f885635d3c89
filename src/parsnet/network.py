"""Single-hidden-layer denoising autoencoder with a shared softmax head.

The decoder weight is the transpose of the encoder weight by construction
(never stored separately), and the encoder weight and bias double as the
first layer of the classifier.  The hidden layer can grow and shrink at
runtime; all training is plain per-sample SGD, on squared error for the
reconstruction and on cross-entropy for the classifier.

Parameter layout: the classifier parameters ``w_in``, ``b_in``, ``w_out``
and ``c_out`` live back to back, in :data:`THETA_KEYS` order, in one float64
vector, ``Network.params``, and the four attributes are views into it
(:func:`theta_views` owns the layout, :func:`flatten_theta` builds a vector in
it).  The classifier gradients, the hedge's pull addend and its stores share
the layout, so one SGD step or one accumulator update is one vector
operation.  The decoder bias ``d`` is stored on its own.  A structural
change builds a new vector and rebinds the views; code that keeps a view
across ``add_nodes`` or ``prune_nodes`` holds the old parameters.  Both return
flat positions, so any vector in the layout follows with one index operation:
``new[carried] = old`` after ``carried = add_nodes(...)``, ``new = old[kept]``
after ``kept = prune_nodes(...)``.

The per-sample methods (``predict_proba`` and the two steps) trust their
input; :mod:`parsnet.stream` states who checks it.

Forward reuse: ``predict_proba`` keeps its sample, hidden layer and
probabilities in ``_forward``; the next ``discriminative_step`` on that same
sample object takes them instead of its own encoder and softmax pass.  Every
method that writes parameters (``generative_step``, ``discriminative_step``,
``add_nodes``, ``prune_nodes``) clears them, so they are used at most once and
only with the parameters that made them.  Code that writes the parameters
directly, or the sample or the returned probabilities in place, between the
two calls must clear ``_forward`` too.

Call overhead: a sample's arrays are tiny, so numpy's dispatch outweighs the
arithmetic.  Products are ``a.dot(b)`` (the BLAS call and bits of ``a @ b``,
without the ``matmul`` ufunc machinery), and Python-float operands read-only
0-d arrays (:func:`constants`).  ``_classify`` takes a 1-d softmax: the peak
``z[z.argmax()]`` and a plain sum give the bits of :func:`softmax`'s keepdims
reductions, NaN and infinities included.
"""

from __future__ import annotations

import numpy as np

# Pre-activation clamp before exponentiation; saturates without overflow.
ACTIVATION_CLAMP = 30.0

THETA_KEYS = ("w_in", "b_in", "w_out", "c_out")


def constants(*values: float) -> tuple[np.ndarray, ...]:
    """Read-only 0-d float64 arrays (``broadcast_to`` views): shared operands
    that a ufunc takes faster than Python floats."""
    return tuple(np.broadcast_to(float(value), ()) for value in values)


_ONE, _LOW, _HIGH = constants(1.0, -ACTIVATION_CLAMP, ACTIVATION_CLAMP)


def theta_bounds(length: int, n_inputs: int, n_classes: int) -> tuple[int, int, int, int]:
    """End offsets of the :data:`THETA_KEYS` segments of a flat vector of ``length``."""
    n_hidden, rest = divmod(length - n_classes, n_inputs + 1 + n_classes)
    if rest or n_hidden < 1:
        raise ValueError(f"a vector of length {length} is no classifier layout "
                         f"for {n_inputs} inputs and {n_classes} classes")
    b_in_end = n_hidden * (n_inputs + 1)
    return b_in_end - n_hidden, b_in_end, b_in_end + n_hidden * n_classes, length


def theta_views(flat: np.ndarray, n_inputs: int, n_classes: int) -> dict[str, np.ndarray]:
    """The named segments of a flat classifier vector, keyed like :data:`THETA_KEYS`.

    The vector holds ``w_in`` (hidden x inputs, row-major), ``b_in``,
    ``w_out`` (hidden x classes, row-major) and ``c_out``, in that order; the
    hidden size follows from its length.  Each segment is a C-contiguous
    view, so writing to it writes to ``flat``.
    """
    w_in_end, b_in_end, w_out_end, _ = theta_bounds(flat.shape[0], n_inputs, n_classes)
    return {"w_in": flat[:w_in_end].reshape(-1, n_inputs), "b_in": flat[w_in_end:b_in_end],
            "w_out": flat[b_in_end:w_out_end].reshape(-1, n_classes),
            "c_out": flat[w_out_end:]}


def flatten_theta(w_in, b_in, w_out, c_out) -> np.ndarray:
    """A fresh flat vector holding the four parts in the :func:`theta_views` layout."""
    return np.concatenate((w_in, b_in, w_out, c_out), axis=None)


def sigmoid(z: np.ndarray) -> np.ndarray:
    # Same values as np.clip and 1.0 / (...), at a fraction of their call overhead.
    return np.reciprocal(_ONE + np.exp(-np.minimum(np.maximum(z, _LOW), _HIGH)))


def softmax(z: np.ndarray) -> np.ndarray:
    # The ufunc reductions skip the Python wrapper of ndarray.max/sum.
    e = np.exp(z - np.maximum.reduce(z, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def mask_input(x: np.ndarray, fraction: float, rng: np.random.Generator) -> np.ndarray:
    """Blank a uniformly random ``floor(fraction * len(x))``-subset of features;
    ``fraction`` lies in [0, 1), and ``rng`` is needed once a feature is masked."""
    count = int(fraction * x.shape[0])
    if count == 0:
        return x
    masked = x.copy()
    masked[rng.choice(x.shape[0], size=count, replace=False)] = 0.0
    return masked


def check_sample(x, n_inputs: int) -> np.ndarray:
    """``x`` as a float vector of shape ``(n_inputs,)`` with finite entries,
    or ``ValueError``: the learner's sample check."""
    x = np.asarray(x, dtype=float)
    if x.shape != (n_inputs,):
        raise ValueError(f"expected a sample of shape ({n_inputs},), got {x.shape}")
    if np.count_nonzero(np.isfinite(x)) != n_inputs:
        raise ValueError("sample contains non-finite values")
    return x


def normalized_top2(probs: np.ndarray) -> float:
    """Confidence of the leading class against the runner-up only.

    Maps any probability vector to [0.5, 1]: 0.5 when the two strongest
    classes tie, 1 for a one-hot prediction.  Invariant to permutations.
    """
    if probs.shape[-1] < 2:
        raise ValueError("need at least two classes")
    # A Python sort of a handful of floats beats np.partition's call overhead.
    *_, second, first = sorted(probs.tolist())
    return first / (second + first)


class Network:
    """Growable tied-weight autoencoder/classifier parameter bundle.

    The classifier trains under cross-entropy; the reconstruction path is
    squared error.
    """

    def __init__(self, n_inputs: int, n_classes: int, n_hidden: int = 1,
                 rng: np.random.Generator | None = None):
        if n_inputs < 1:
            raise ValueError("n_inputs must be >= 1")
        if n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        if n_hidden < 1:
            raise ValueError("n_hidden must be >= 1")
        rng = rng if rng is not None else np.random.default_rng()
        self.n_inputs = n_inputs
        self.n_classes = n_classes
        w_in = self._xavier(rng, (n_hidden, n_inputs), n_inputs, n_hidden)
        w_out = self._xavier(rng, (n_hidden, n_classes), n_hidden, n_classes)
        self.d = np.zeros(n_inputs)
        self._bind(flatten_theta(w_in, np.zeros(n_hidden), w_out, np.zeros(n_classes)))

    def _bind(self, params: np.ndarray) -> None:
        """Make ``params`` the classifier vector and its segments the named
        attributes; drops the kept forward pass."""
        self.params = params
        self.w_in, self.b_in, self.w_out, self.c_out = theta_views(
            params, self.n_inputs, self.n_classes).values()
        self._forward = None

    # Copies and pickles carry ``params`` alone: copied one by one, the views
    # would come back as arrays of their own, cut loose from the vector.
    def __getstate__(self):
        return {key: value for key, value in self.__dict__.items()
                if key not in THETA_KEYS and key != "_forward"}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._bind(state["params"])

    @staticmethod
    def _xavier(rng, shape, fan_in, fan_out):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, shape)

    @property
    def n_hidden(self) -> int:
        return self.w_in.shape[0]

    def theta(self) -> dict[str, np.ndarray]:
        """The classifier parameters by name: live views into ``params``."""
        return {"w_in": self.w_in, "b_in": self.b_in,
                "w_out": self.w_out, "c_out": self.c_out}

    # -- inference ---------------------------------------------------------

    def _classify(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Hidden layer and class probabilities of one clean sample."""
        hidden = sigmoid(self.w_in.dot(x) + self.b_in)
        z = hidden.dot(self.w_out) + self.c_out
        e = np.exp(z - z[z.argmax()])
        return hidden, e / np.add.reduce(e)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Class probabilities of one sample, kept for the next
        ``discriminative_step`` on the same sample (see the module docstring)."""
        hidden, probs = self._classify(x)
        self._forward = (x, hidden, probs)
        return probs

    def predict_batch(self, features: np.ndarray) -> np.ndarray:
        """Class probabilities for a whole batch (clean inputs, vectorised)."""
        features = np.asarray(features, dtype=float)
        if features.ndim != 2 or features.shape[1] != self.n_inputs:
            raise ValueError(
                f"expected a batch of shape (n, {self.n_inputs}), got {features.shape}")
        if not np.logical_and.reduce(np.isfinite(features), axis=None):
            raise ValueError("input contains non-finite values")
        hidden = sigmoid(features.dot(self.w_in.T) + self.b_in)
        return softmax(hidden.dot(self.w_out) + self.c_out)

    # -- training ----------------------------------------------------------

    def generative_gradients(self, x: np.ndarray, masked: np.ndarray):
        """Reconstruction error and its gradients under the tied constraint.

        The encoder use and the decoder use of ``w_in`` each contribute a
        term; their sum is the gradient of the shared matrix.
        """
        hidden = sigmoid(self.w_in.dot(masked) + self.b_in)
        recon = sigmoid(hidden.dot(self.w_in) + self.d)
        diff = recon - x
        error = 0.5 * float(diff.dot(diff))
        delta_out = diff * recon * (_ONE - recon)
        delta_hidden = self.w_in.dot(delta_out) * hidden * (_ONE - hidden)
        grads = {
            "w_in": hidden[:, None] * delta_out + delta_hidden[:, None] * masked,
            "b_in": delta_hidden,
            "d": delta_out,
        }
        return error, grads

    def generative_step(self, x: np.ndarray, lr: float, mask_fraction: float = 0.0,
                        rng: np.random.Generator | None = None) -> float:
        """One SGD step on the reconstruction of the clean input; returns the
        pre-update error."""
        masked = mask_input(x, mask_fraction, rng)
        self._forward = None
        error, grads = self.generative_gradients(x, masked)
        if lr > 0.0:
            self.w_in -= lr * grads["w_in"]
            self.b_in -= lr * grads["b_in"]
            self.d -= lr * grads["d"]
        return error

    def discriminative_step(self, x: np.ndarray, target: np.ndarray, lr: float,
                            grad_addend: np.ndarray | None = None) -> np.ndarray:
        """One SGD step on the classifier's cross-entropy toward ``target``, a
        one-hot float vector over the classes; returns the data gradient, a
        fresh flat vector in the layout of ``params`` (at ``lr=0.0`` nothing
        moves).  ``grad_addend``, a vector in the same layout, is added to it
        before the step: the anchored importance pull of a pseudo label.
        """
        forward, self._forward = self._forward, None
        hidden, probs = (forward[1:] if forward is not None and forward[0] is x
                         else self._classify(x))
        delta_logits = probs - target
        delta_hidden = self.w_out.dot(delta_logits) * hidden * (_ONE - hidden)
        grads = flatten_theta(delta_hidden[:, None] * x, delta_hidden,
                              hidden[:, None] * delta_logits, delta_logits)
        if lr > 0.0:
            self.params -= lr * (grads if grad_addend is None else grads + grad_addend)
        return grads

    # -- structural changes --------------------------------------------------

    def _positions(self, units) -> np.ndarray:
        """The positions in ``params`` of hidden units ``units``' entries, then ``c_out``'s."""
        w_in, b_in, w_out, c_out = theta_views(
            np.arange(self.params.shape[0]), self.n_inputs, self.n_classes).values()
        return flatten_theta(w_in[units], b_in[units], w_out[units], c_out)

    def add_nodes(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Append ``count`` freshly initialised hidden units, old units untouched;
        returns where the old entries now sit in ``params``."""
        old, total = self.n_hidden, self.n_hidden + count
        new_w_in = self._xavier(rng, (count, self.n_inputs), self.n_inputs, total)
        new_w_out = self._xavier(rng, (count, self.n_classes), total, self.n_classes)
        # Layout order: each segment's old block, then its new one.
        self._bind(np.concatenate((self.w_in, new_w_in, self.b_in, np.zeros(count),
                                   self.w_out, new_w_out, self.c_out), axis=None))
        return self._positions(slice(old))

    def prune_nodes(self, indexes) -> np.ndarray:
        """Remove the listed hidden units; returns where the survivors' entries
        sat in the old ``params``."""
        indexes = np.asarray(indexes)
        if indexes.size == 0:
            return np.arange(self.params.shape[0])
        if indexes.dtype.kind not in "iu":
            raise ValueError(f"hidden-unit indexes must be integers, got {indexes.dtype}")
        indexes = np.unique(indexes)
        if indexes.min() < 0 or indexes.max() >= self.n_hidden:
            raise IndexError("hidden-unit index out of range")
        if indexes.size >= self.n_hidden:
            raise ValueError("refusing to prune every hidden unit")
        kept = self._positions(np.setdiff1d(np.arange(self.n_hidden), indexes))
        self._bind(self.params[kept])
        return kept
