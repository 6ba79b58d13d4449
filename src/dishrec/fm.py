"""Second-order factorization machine trained by SGD with adaptive
regularization.

Instances are sparse (index, value) lists; the recommender uses one-hot
user and column blocks. The pairwise interaction term is evaluated in the
linear-time form sum_f [(sum_i v_if x_i)^2 - sum_i v_if^2 x_i^2] / 2, and
the regularization strengths are themselves adapted each epoch by a
gradient step on validation error through the next parameter update.

Training keeps w and V as numpy arrays and runs each pass in runs:
maximal stretches of consecutive visits in which no two instances share a
feature index and all have one width. The steps of a run touch disjoint
rows, so each run is done in one numpy pass: the rows are gathered once,
the factor sums and squared norms are sequential adds (never pairwise
``.sum()``), w0 -- the one parameter every step touches -- is updated in a
Python-float chain, and the rows are scattered back slot by slot. Every
value is computed with the same operations in the same order as one SGD
step at a time, so training is bit-identical to the stepwise trainer. The
per-epoch train MSE and lambda gradients are single numpy passes over the
dataset held as padded index/value arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite
from operator import mul

import numpy as np

from .errors import DivergenceDetected, FeatureIndexOutOfRange, InvalidConfig, UnknownColumn, UnknownUser


@dataclass
class FMModel:
    """A trained factorization machine.

    Read-only after construction: ``__post_init__`` checks that ``V`` is
    n_features x kdim (InvalidConfig otherwise), keeps non-writeable float
    copies of ``w`` and ``V``, and takes the views that prediction reads --
    ``w`` as Python floats, ``V`` as row lists and each row's squared norm.
    An in-place write to ``w`` or ``V``, which the views would not see,
    raises ValueError instead.
    """

    w0: float
    w: np.ndarray            # n_features
    V: np.ndarray            # n_features x kdim
    lambda_w: float
    lambda_v: float
    kdim: int
    history: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if np.shape(self.V) != (len(self.w), self.kdim):
            raise InvalidConfig(f"V must be {len(self.w)} x {self.kdim}, "
                                f"got shape {np.shape(self.V)}")
        self.w = np.array(self.w, dtype=float)
        self.V = np.array(self.V, dtype=float)
        self.w.setflags(write=False)
        self.V.setflags(write=False)
        self._w = self.w.tolist()
        self._V = self.V.tolist()
        # builtin sum, as in fm_predict_reference: it is compensated since
        # Python 3.12, so only the same expression gives its floats everywhere
        self._norms = [sum(map(mul, row, row)) for row in self._V]

    @property
    def n_features(self):
        return len(self.w)


@dataclass(frozen=True)
class FeatureMap:
    """One-hot layout: user block, then column block."""

    user_ids: tuple[str, ...]
    columns: tuple[tuple[str, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "_user_index", {u: i for i, u in enumerate(self.user_ids)})
        object.__setattr__(
            self, "_column_index",
            {c: len(self.user_ids) + j for j, c in enumerate(self.columns)},
        )

    @property
    def n_features(self):
        return len(self.user_ids) + len(self.columns)

    def encode(self, user_id, column):
        u = self._user_index.get(user_id)
        if u is None:
            raise UnknownUser(user_id)
        c = self._column_index.get(column)
        if c is None:
            raise UnknownColumn(str(column))
        return ((u, 1.0), (c, 1.0))

    @classmethod
    def from_matrix(cls, matrix) -> "FeatureMap":
        return cls(tuple(matrix.user_ids), tuple(matrix.columns))


def build_fm_dataset(matrix):
    """(features, target) pairs for every observed matrix entry, in
    deterministic (user, column) order."""
    fmap = FeatureMap.from_matrix(matrix)
    data = [
        (fmap.encode(matrix.user_ids[u], matrix.columns[j]), float(matrix.ratings[u, j]))
        for u, j in np.argwhere(matrix.mask).tolist()
    ]
    return data, fmap


def _check_indices(x, n):
    for i, _ in x:
        if not 0 <= i < n:
            raise FeatureIndexOutOfRange(f"feature index {i} outside 0..{n - 1}")


def _forward(x, model: FMModel):
    """Prediction and factor sums s_f = sum_i v_if x_i of instance x, read
    from the model's list views; the indices are checked first, since a
    list would wrap a negative one."""
    _check_indices(x, model.n_features)
    w, V, norms = model._w, model._V, model._norms
    y = model.w0
    sq = 0.0
    s = [0.0] * model.kdim
    for i, v in x:
        y += w[i] * v
        sq += norms[i] * v * v
        s = [a + r * v for a, r in zip(s, V[i])]
    return y + 0.5 * (sum(map(mul, s, s)) - sq), s


def fm_predict(x, model: FMModel) -> float:
    """w0 + <w, x> + pairwise interactions in the linear-time form."""
    return float(_forward(x, model)[0])


def fm_predict_gradients(x, model: FMModel):
    """d prediction / d (w0, active w_i, active V rows), from the kernel that
    training uses; the finite-difference checks test it."""
    _, s = _forward(x, model)
    grad_V = [(i, np.array([v * (a - r * v) for a, r in zip(s, model._V[i])])) for i, v in x]
    return 1.0, [(i, v) for i, v in x], grad_V


def _as_arrays(data, n_features):
    """A dataset as padded (index, value) arrays plus targets, every index
    checked once. Padding is feature 0 with value 0, which adds nothing."""
    width = max(len(x) for x, _ in data)
    idx = np.zeros((len(data), width), dtype=np.intp)
    val = np.zeros((len(data), width))
    for r, (x, _) in enumerate(data):
        _check_indices(x, n_features)
        for c, (i, v) in enumerate(x):
            idx[r, c] = i
            val[r, c] = v
    return idx, val, np.array([y for _, y in data], dtype=float)


def _batch(arrays, w0, w, V):
    """Prediction errors, <w, x> and sum_i (d y / d V_i) . V_i for a whole
    dataset; the last equals twice the pairwise term."""
    idx, val, y = arrays
    xv = V[idx] * val[..., None]
    s = xv.sum(axis=1)
    linear = (w[idx] * val).sum(axis=1)
    pairwise2 = (s * s).sum(axis=1) - (xv * xv).sum(axis=(1, 2))
    return w0 + linear + 0.5 * pairwise2 - y, linear, pairwise2


def _mse(arrays, w0, w, V):
    err, _, _ = _batch(arrays, w0, w, V)
    return float(np.mean(err * err))


def _lambda_gradients(arrays, w0, w, V, lr):
    """d validation squared error / d lambda, through the next-step update
    theta' = theta - lr * (loss grad + lambda * theta), i.e.
    d theta' / d lambda = -lr * theta."""
    err, linear, pairwise2 = _batch(arrays, w0, w, V)
    return float(np.mean(2.0 * err * -lr * linear)), float(np.mean(2.0 * err * -lr * pairwise2))


def _runs(visits, features):
    """Split a pass's visit order into maximal runs of consecutive visits in
    which no two instances share a feature index and every instance has the
    same width; ``features[k]`` is instance k's tuple of feature indices. A
    feature repeated inside one instance does not end a run. Returns
    ``(start, stop, width)`` for each run, as positions in ``visits``."""
    runs = []
    start = width = 0
    touched = set()  # the feature indices of the current run
    for pos, k in enumerate(visits):
        f = features[k]
        if len(f) != width or not touched.isdisjoint(f):
            if pos:
                runs.append((start, pos, width))
            start, width, touched = pos, len(f), set(f)
        else:
            touched.update(f)
    if visits:
        runs.append((start, len(visits), width))
    return runs


def _sgd_run(rows, x, y, w0, w, V, lr, lambda_w, lambda_v):
    """The squared-error SGD steps of one run, in visit order; updates ``w``
    and ``V`` in place and returns the new w0. ``rows[j]`` and ``x[j]`` hold
    the feature indices and values in slot j of the run's instances, ``y``
    their targets.

    Each value is the one a single step computes, by the same elementwise
    operations in the same order: the prediction and the factor sums s come
    from the pre-step rows, the gradient of V_i is x_i (s - V_i x_i) (the
    formula of ``fm_predict_gradients``), weight decay applies to the active
    w_i and V rows, and w0 is unregularized. Because the run's instances
    share no feature, only w0 carries from one step to the next. The rows
    are re-gathered after each slot, so a feature repeated inside one
    instance takes its second update from its first, as in a single step.
    """
    width, n = rows.shape
    x_col = x[..., None]
    pre = V[rows]                                   # width x n x kdim
    xv = pre * x_col
    norms = np.add.accumulate(pre * pre, axis=2)[..., -1] * x * x
    s = np.zeros((n, V.shape[1]))
    sq = np.zeros(n)
    for j in range(width):
        s += xv[j]
        sq += norms[j]
    pairwise = 0.5 * (np.add.accumulate(s * s, axis=1)[:, -1] - sq)

    err2 = []
    for terms, h, target in zip((w[rows] * x).T.tolist(), pairwise.tolist(), y.tolist()):
        y_hat = w0
        for term in terms:
            y_hat += term
        e = 2.0 * (y_hat + h - target)
        w0 -= lr * e
        err2.append(e)

    err2 = np.array(err2)
    grad_w = err2 * x
    grad_V = err2[:, None] * (x_col * (s - xv))
    for j in range(width):
        i = rows[j]
        r = w[i]
        w[i] = r - lr * (grad_w[j] + lambda_w * r)
        r = V[i]
        V[i] = r - lr * (grad_V[j] + lambda_v * r)
    return w0


def fm_train(train, validation=None, lr: float = 0.001, epochs: int = 100,
             kdim: int = 8, seed: int = 0, n_features: int | None = None,
             lambda_init: float = 0.01, lambda_max: float = 10.0,
             lambda_lr: float | None = None, iteration_unit: str = "epochs") -> FMModel:
    """Train on (sparse features, target) pairs.

    Each epoch runs one seeded-shuffle SGD pass over the training set, then
    one adaptive-regularization step: lambda_w and lambda_v move along the
    gradient of validation squared error taken through the next parameter
    update, clamped to [0, lambda_max]. When no validation set is supplied, a
    seeded 10% slice of the training data is carved off for it.
    ``iteration_unit="steps"`` reinterprets ``epochs`` as a number of
    single-instance SGD steps (one lambda update at the end).

    The returned model carries a ``history`` dict with per-epoch train MSE
    and the lambda trajectory. A non-finite parameter after a pass, or a
    non-finite train MSE after an epoch, raises DivergenceDetected.
    """
    if not train:
        raise InvalidConfig("empty training set")
    if iteration_unit not in ("epochs", "steps"):
        raise InvalidConfig(f"bad iteration_unit {iteration_unit!r}")
    if kdim < 1:
        raise InvalidConfig(f"kdim must be at least 1, got {kdim!r}")
    if epochs < 0:
        raise InvalidConfig(f"epochs must be non-negative, got {epochs!r}")
    for name, value in (("lr", lr), ("lambda_init", lambda_init),
                        ("lambda_max", lambda_max), ("lambda_lr", lambda_lr)):
        if value is not None and not (isfinite(value) and value >= 0):
            raise InvalidConfig(f"{name} must be finite and non-negative, got {value!r}")
    rng = np.random.default_rng(seed)
    train = list(train)
    if validation is None:
        if len(train) < 2:
            raise InvalidConfig("need at least 2 instances to carve a validation split")
        order = rng.permutation(len(train))
        n_val = max(1, int(round(0.1 * len(train))))
        validation = [train[i] for i in order[:n_val]]
        train = [train[i] for i in order[n_val:]]
    validation = list(validation)
    if not validation:
        raise InvalidConfig("validation set must be non-empty")

    if n_features is None:
        n_features = 1 + max(i for x, _ in list(train) + validation for i, _ in x)
    train_arrays = idx, val, targets = _as_arrays(train, n_features)
    val_arrays = _as_arrays(validation, n_features)
    features = [tuple(i for i, _ in x) for x, _ in train]
    w0 = 0.0
    w = np.zeros(n_features)
    V = rng.normal(0.0, 0.01, size=(n_features, kdim))
    lambda_w = lambda_v = lambda_init
    lam_lr = lr if lambda_lr is None else lambda_lr
    train_mse = []
    lambdas = []

    if iteration_unit == "steps":
        order = rng.permutation(len(train)).tolist()
        passes = [[order[step % len(train)] for step in range(epochs)]]
    else:
        passes = (rng.permutation(len(train)).tolist() for _ in range(epochs))
    with np.errstate(over="ignore", invalid="ignore"):
        for visits in passes:
            # slot-major, so that one slot of a run is a contiguous row
            rows = np.ascontiguousarray(idx[visits].T)
            x = np.ascontiguousarray(val[visits].T)
            y = targets[visits]
            for start, stop, width in _runs(visits, features):
                w0 = _sgd_run(rows[:width, start:stop], x[:width, start:stop], y[start:stop],
                              w0, w, V, lr, lambda_w, lambda_v)
            # a non-finite parameter stays non-finite through every later
            # update, so one check per pass sees each that a check per step sees
            if not (isfinite(w0) and np.isfinite(w).all() and np.isfinite(V).all()):
                raise DivergenceDetected("non-finite factorization machine parameters")
            g_w, g_v = _lambda_gradients(val_arrays, w0, w, V, lr)
            lambda_w = float(np.clip(lambda_w - lam_lr * g_w, 0.0, lambda_max))
            lambda_v = float(np.clip(lambda_v - lam_lr * g_v, 0.0, lambda_max))
            lambdas.append((lambda_w, lambda_v))
            mse = _mse(train_arrays, w0, w, V)
            if not isfinite(mse):
                raise DivergenceDetected("non-finite train MSE")
            train_mse.append(mse)

    return FMModel(w0, w, V, lambda_w, lambda_v, kdim,
                   history={"train_mse": train_mse, "lambdas": lambdas})
