"""Second-order factorization machine trained by SGD with adaptive
regularization.

Instances are sparse (index, value) lists; the recommender uses one-hot
user and column blocks. The pairwise interaction term is evaluated in the
linear-time form sum_f [(sum_i v_if x_i)^2 - sum_i v_if^2 x_i^2] / 2, and
the regularization strengths are themselves adapted each epoch by a
gradient step on validation error through the next parameter update.

Training keeps the parameters as Python floats (w a list, V a list of
k-float rows) and runs one scalar kernel per SGD step: ``_forward`` gives
the prediction and the factor sums, and ``_step`` reuses those sums for the
gradient. The per-epoch train MSE and lambda gradients are single numpy
passes over the dataset held as padded index/value arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite
from operator import mul

import numpy as np

from .errors import DivergenceDetected, FeatureIndexOutOfRange, InvalidConfig, UnknownColumn, UnknownUser


@dataclass
class FMModel:
    w0: float
    w: np.ndarray            # n_features
    V: np.ndarray            # n_features x kdim
    lambda_w: float
    lambda_v: float
    kdim: int
    history: dict = field(default_factory=dict, repr=False)

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


def _forward(x, w0, w, V, kdim):
    """Prediction and factor sums s_f = sum_i v_if x_i of instance x.

    ``w`` and ``V`` map a feature index to its weight and to its factor row,
    a list of ``kdim`` Python floats.
    """
    y = w0
    sq = 0.0
    s = [0.0] * kdim
    for i, v in x:
        row = V[i]
        y += w[i] * v
        sq += sum(map(mul, row, row)) * v * v
        s = [a + r * v for a, r in zip(s, row)]
    return y + 0.5 * (sum(map(mul, s, s)) - sq), s


def _step(x, y, w0, w, V, lr, lambda_w, lambda_v, kdim):
    """One squared-error SGD step on the Python-float parameters of
    ``_forward``; updates ``w`` and ``V`` in place and returns the prediction
    made before the step and the new w0.

    Every gradient is taken from the pre-update parameters (``rows``). The
    factor-row update inlines d y / d V_i = x_i (s - V_i x_i), the formula of
    ``fm_predict_gradients``: building a separate gradient list made training
    about a fifth slower. Weight decay applies to the active w_i and V rows;
    w0 is unregularized. Only w0 and the touched rows can change, so only
    they are checked for finiteness.
    """
    rows = [V[i] for i, _ in x]
    y_hat, s = _forward(x, w0, w, V, kdim)
    err2 = 2.0 * (y_hat - y)
    w0 -= lr * err2
    finite = isfinite(w0)
    for (i, v), pre in zip(x, rows):
        w[i] -= lr * (err2 * v + lambda_w * w[i])
        V[i] = row = [r - lr * (err2 * (v * (a - p * v)) + lambda_v * r)
                      for a, p, r in zip(s, pre, V[i])]
        finite = finite and isfinite(w[i]) and all(map(isfinite, row))
    if not finite:
        raise DivergenceDetected("non-finite factorization machine parameters")
    return y_hat, w0


def _active(x, model: FMModel):
    """The weights and factor rows of x's features, keyed by feature index."""
    _check_indices(x, model.n_features)
    return {i: float(model.w[i]) for i, _ in x}, {i: model.V[i].tolist() for i, _ in x}


def fm_predict(x, model: FMModel) -> float:
    """w0 + <w, x> + pairwise interactions in the linear-time form."""
    w, V = _active(x, model)
    return float(_forward(x, model.w0, w, V, model.kdim)[0])


def fm_predict_gradients(x, model: FMModel):
    """d prediction / d (w0, active w_i, active V rows), from the kernel that
    training uses; the finite-difference checks test it."""
    w, V = _active(x, model)
    _, s = _forward(x, model.w0, w, V, model.kdim)
    grad_V = [(i, np.array([v * (a - r * v) for a, r in zip(s, V[i])])) for i, v in x]
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
    and the lambda trajectory. A non-finite parameter after a step, or a
    non-finite train MSE after an epoch, raises DivergenceDetected.
    """
    if not train:
        raise InvalidConfig("empty training set")
    if iteration_unit not in ("epochs", "steps"):
        raise InvalidConfig(f"bad iteration_unit {iteration_unit!r}")
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
    train_arrays = _as_arrays(train, n_features)
    val_arrays = _as_arrays(validation, n_features)
    w0 = 0.0
    w = [0.0] * n_features
    V = rng.normal(0.0, 0.01, size=(n_features, kdim)).tolist()
    lambda_w = lambda_v = lambda_init
    lam_lr = lr if lambda_lr is None else lambda_lr
    train_mse = []
    lambdas = []

    if iteration_unit == "steps":
        order = rng.permutation(len(train)).tolist()
        passes = [[order[step % len(train)] for step in range(epochs)]]
    else:
        passes = (rng.permutation(len(train)).tolist() for _ in range(epochs))
    for visits in passes:
        for k in visits:
            x, y = train[k]
            _, w0 = _step(x, y, w0, w, V, lr, lambda_w, lambda_v, kdim)
        w_arr, V_arr = np.array(w), np.array(V)
        g_w, g_v = _lambda_gradients(val_arrays, w0, w_arr, V_arr, lr)
        lambda_w = float(np.clip(lambda_w - lam_lr * g_w, 0.0, lambda_max))
        lambda_v = float(np.clip(lambda_v - lam_lr * g_v, 0.0, lambda_max))
        lambdas.append((lambda_w, lambda_v))
        with np.errstate(over="ignore", invalid="ignore"):
            mse = _mse(train_arrays, w0, w_arr, V_arr)
        if not isfinite(mse):
            raise DivergenceDetected("non-finite train MSE")
        train_mse.append(mse)

    return FMModel(w0, np.array(w), np.array(V), lambda_w, lambda_v, kdim,
                   history={"train_mse": train_mse, "lambdas": lambdas})
