"""Independent reference implementations used as test oracles.

Everything here is deliberately written in a different style from the
package (dict-based bookkeeping, explicit scalar loops, no shared helpers)
so that agreement between the two paths is meaningful.
"""

import math
import random
from dataclasses import dataclass, field
from operator import mul
from types import SimpleNamespace

import numpy as np

from dishrec import evalx, fm, pipeline
from dishrec.corpus import (
    _OTHER_PUNCT_RE,
    _SENT_PUNCT_RE,
    CLAUSE_MARKERS,
    PROTECTED_TOKENS,
    SENT_BREAK,
    _lowercase_keeping_sentinels,
)
from dishrec.errors import (
    DivergenceDetected,
    EmptyCorpus,
    FeatureIndexOutOfRange,
    InvalidConfig,
    QueryError,
    UndefinedMetric,
    UnknownColumn,
    UnknownItem,
    UnknownUser,
)
from dishrec.fragmenter import ItemFragment


def user_neighborhood_reference(ratings, user_means, sims, k, m, n_neighbors=None, center="user",
                  column_means=None):
    """Direct evaluation of the user-neighborhood prediction formula.

    ratings: {(user, column): value}; sims: {(u1, u2): similarity};
    user ids are comparable (tie order = ascending id).
    """
    raters = sorted({u for (u, c) in ratings if c == m and u != k})
    raters.sort(key=lambda u: (-abs(sims[(k, u)]), u))
    if n_neighbors is not None:
        raters = raters[:n_neighbors]
    denom = 0.0
    num = 0.0
    for a in raters:
        s = sims[(k, a)]
        base = user_means[a] if center == "user" else column_means[m]
        num += s * (ratings[(a, m)] - base)
        denom += abs(s)
    if denom == 0.0:
        return user_means[k]
    return user_means[k] + num / denom


def item_neighborhood_reference(ratings, sims, k, m, n_neighbors=None):
    """Direct evaluation of the item-neighborhood prediction formula.

    sims: {(c1, c2): similarity}; columns comparable for tie order.
    """
    rated = sorted({c for (u, c) in ratings if u == k and c != m})
    rated.sort(key=lambda c: (-abs(sims[(m, c)]), c))
    if n_neighbors is not None:
        rated = rated[:n_neighbors]
    denom = 0.0
    num = 0.0
    for b in rated:
        s = sims[(m, b)]
        num += s * ratings[(k, b)]
        denom += abs(s)
    if denom == 0.0:
        return None
    return num / denom


def cosine_reference(a, b):
    dot = sum(x * y for x, y in zip(a, b))
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(y * y for y in b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


def fm_naive(x, w0, w, V):
    """O(n^2) pairwise factorization machine prediction."""
    active = list(x)
    y = w0
    for i, v in active:
        y += w[i] * v
    for a in range(len(active)):
        for b in range(a + 1, len(active)):
            i, vi = active[a]
            j, vj = active[b]
            dot = sum(V[i][f] * V[j][f] for f in range(len(V[i])))
            y += dot * vi * vj
    return y


def set_partitions(items):
    """All set partitions of a sequence (restricted-growth enumeration)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in set_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [[first] + partition[i]] + partition[i + 1:]
        yield [[first]] + partition


def best_partition_by_modularity(graph, modularity_fn):
    """Exhaustive-search maximum modularity over all partitions."""
    nodes = sorted(graph.nodes)
    best_q = -math.inf
    best = None
    for blocks in set_partitions(nodes):
        partition = {}
        for cid, block in enumerate(blocks):
            for node in block:
                partition[node] = cid
        q = modularity_fn(graph, partition)
        if q > best_q:
            best_q = q
            best = partition
    return best_q, best


def _sig(z):
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    return math.exp(z) / (1.0 + math.exp(z))


def lstm_reference_score(indices, params):
    """Scalar step-by-step recurrence evaluation (no vectorization).

    Reads gate k of the stacked W, U and b as rows k*d_h .. (k+1)*d_h - 1.
    """
    d_h = len(params.w_out)
    d_e = params.E.shape[1]
    h = [0.0] * d_h
    c = [0.0] * d_h

    def gate(k, e, h_prev, act):
        out = []
        for r in range(d_h):
            row = k * d_h + r
            z = params.b[row]
            for q in range(d_e):
                z += params.W[row][q] * e[q]
            for q in range(d_h):
                z += params.U[row][q] * h_prev[q]
            out.append(act(z))
        return out

    for idx in indices:
        e = [params.E[idx][q] for q in range(d_e)]
        i = gate(0, e, h, _sig)
        f = gate(1, e, h, _sig)
        o = gate(2, e, h, _sig)
        g = gate(3, e, h, math.tanh)
        c = [f[r] * c[r] + i[r] * g[r] for r in range(d_h)]
        h = [o[r] * math.tanh(c[r]) for r in range(d_h)]
    z = params.b_out
    for r in range(d_h):
        z += params.w_out[r] * h[r]
    return math.tanh(z)


def central_difference(f, x0, step):
    """Scalar central finite difference of f at x0."""
    return (f(x0 + step) - f(x0 - step)) / (2.0 * step)


# ---------------------------------------------------------------------------
# Factorization machine trainer, numpy per step: the implementation the
# scalar kernel (fm_train_stepwise_reference below) replaced. Per SGD step it recomputes the factor
# sums for the prediction and again for the gradient, checks every index and
# checks the whole w and V for finiteness; the per-epoch MSE and lambda
# gradients loop over instances one at a time.

def _ref_check_indices(x, n):
    for i, _ in x:
        if not 0 <= i < n:
            raise FeatureIndexOutOfRange(f"feature index {i} outside 0..{n - 1}")


def _ref_factor_sums(x, V):
    s = np.zeros(V.shape[1])
    for i, v in x:
        s += V[i] * v
    return s


def _ref_predict(x, model):
    _ref_check_indices(x, len(model.w))
    y = model.w0
    sq = 0.0
    for i, v in x:
        y += model.w[i] * v
        sq += float(model.V[i] @ model.V[i]) * v * v
    s = _ref_factor_sums(x, model.V)
    y += 0.5 * (float(s @ s) - sq)
    return float(y)


def fm_sgd_step_reference(x, y, model, lr):
    """One SGD step on a model with numpy w and V, updated in place."""
    y_hat = _ref_predict(x, model)
    err2 = 2.0 * (y_hat - y)
    s = _ref_factor_sums(x, model.V)
    grad_w = [(i, v) for i, v in x]
    grad_V = [(i, v * (s - model.V[i] * v)) for i, v in x]
    model.w0 -= lr * err2
    for i, g in grad_w:
        model.w[i] -= lr * (err2 * g + model.lambda_w * model.w[i])
    for i, g in grad_V:
        model.V[i] -= lr * (err2 * g + model.lambda_v * model.V[i])
    if not (np.isfinite(model.w0) and np.isfinite(model.w).all() and np.isfinite(model.V).all()):
        raise DivergenceDetected("non-finite factorization machine parameters")
    return y_hat


def _ref_mse(data, model):
    if not data:
        return 0.0
    return float(np.mean([(_ref_predict(x, model) - y) ** 2 for x, y in data]))


def _ref_lambda_gradients(val, model, lr):
    g_w = 0.0
    g_v = 0.0
    for x, y in val:
        err2 = 2.0 * (_ref_predict(x, model) - y)
        s = _ref_factor_sums(x, model.V)
        dw = sum(v * model.w[i] for i, v in x)
        dv = 0.0
        for i, v in x:
            dy_dVi = v * (s - model.V[i] * v)
            dv += float(dy_dVi @ model.V[i])
        g_w += err2 * (-lr) * dw
        g_v += err2 * (-lr) * dv
    n = max(1, len(val))
    return g_w / n, g_v / n


def fm_train_reference(train, validation=None, lr=0.001, epochs=100, kdim=8, seed=0,
                       n_features=None, lambda_init=0.01, lambda_max=10.0,
                       lambda_lr=None, iteration_unit="epochs"):
    """Same arguments and seeding as ``dishrec.fm.fm_train``; returns a
    namespace with w0, w, V, lambda_w, lambda_v, kdim and history."""
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
    model = SimpleNamespace(
        w0=0.0,
        w=np.zeros(n_features),
        V=rng.normal(0.0, 0.01, size=(n_features, kdim)),
        lambda_w=lambda_init,
        lambda_v=lambda_init,
        kdim=kdim,
    )
    lam_lr = lr if lambda_lr is None else lambda_lr
    train_mse = []
    lambdas = []

    def adapt():
        g_w, g_v = _ref_lambda_gradients(validation, model, lr)
        model.lambda_w = float(np.clip(model.lambda_w - lam_lr * g_w, 0.0, lambda_max))
        model.lambda_v = float(np.clip(model.lambda_v - lam_lr * g_v, 0.0, lambda_max))
        lambdas.append((model.lambda_w, model.lambda_v))

    if iteration_unit == "steps":
        order = rng.permutation(len(train))
        for step in range(epochs):
            x, y = train[order[step % len(train)]]
            fm_sgd_step_reference(x, y, model, lr)
        adapt()
        train_mse.append(_ref_mse(train, model))
    else:
        for _ in range(epochs):
            order = rng.permutation(len(train))
            for k in order:
                x, y = train[k]
                fm_sgd_step_reference(x, y, model, lr)
            adapt()
            train_mse.append(_ref_mse(train, model))

    model.history = {"train_mse": train_mse, "lambdas": lambdas}
    return model


# ---------------------------------------------------------------------------
# Factorization machine trainer, one scalar SGD step at a time: the
# implementation the run-batched kernel in dishrec.fm replaced, with the
# same per-epoch numpy passes. Its sums are explicit left-to-right loops,
# not builtin ``sum``, which compensates float sums since Python 3.12; so
# the run-batched trainer must equal it bit for bit on every interpreter.

def fm_stepwise_forward(x, w0, w, V, kdim):
    """Prediction and factor sums s_f = sum_i v_if x_i of instance x, with
    ``w`` a list of floats and ``V`` a list of k-float rows."""
    y = w0
    sq = 0.0
    s = [0.0] * kdim
    for i, v in x:
        row = V[i]
        y += w[i] * v
        norm = 0.0
        for r in row:
            norm += r * r
        sq += norm * v * v
        s = [a + r * v for a, r in zip(s, row)]
    ss = 0.0
    for a in s:
        ss += a * a
    return y + 0.5 * (ss - sq), s


def fm_stepwise_step(x, y, w0, w, V, lr, lambda_w, lambda_v, kdim):
    """One squared-error SGD step on the list parameters of
    ``fm_stepwise_forward``; updates ``w`` and ``V`` in place and returns the
    prediction made before the step and the new w0. Every gradient is taken
    from the pre-update rows; w0 is unregularized."""
    rows = [V[i] for i, _ in x]
    y_hat, s = fm_stepwise_forward(x, w0, w, V, kdim)
    err2 = 2.0 * (y_hat - y)
    w0 -= lr * err2
    finite = math.isfinite(w0)
    for (i, v), pre in zip(x, rows):
        w[i] -= lr * (err2 * v + lambda_w * w[i])
        V[i] = row = [r - lr * (err2 * (v * (a - p * v)) + lambda_v * r)
                      for a, p, r in zip(s, pre, V[i])]
        finite = finite and math.isfinite(w[i]) and all(map(math.isfinite, row))
    if not finite:
        raise DivergenceDetected("non-finite factorization machine parameters")
    return y_hat, w0


def fm_train_stepwise_reference(train, validation=None, lr=0.001, epochs=100, kdim=8, seed=0,
                                n_features=None, lambda_init=0.01, lambda_max=10.0,
                                lambda_lr=None, iteration_unit="epochs"):
    """Same arguments and seeding as ``dishrec.fm.fm_train``; returns an
    ``FMModel``."""
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
    train_arrays = fm._as_arrays(train, n_features)
    val_arrays = fm._as_arrays(validation, n_features)
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
            _, w0 = fm_stepwise_step(x, y, w0, w, V, lr, lambda_w, lambda_v, kdim)
        w_arr, V_arr = np.array(w), np.array(V)
        with np.errstate(over="ignore", invalid="ignore"):
            g_w, g_v = fm._lambda_gradients(val_arrays, w0, w_arr, V_arr, lr)
            lambda_w = float(np.clip(lambda_w - lam_lr * g_w, 0.0, lambda_max))
            lambda_v = float(np.clip(lambda_v - lam_lr * g_v, 0.0, lambda_max))
            lambdas.append((lambda_w, lambda_v))
            mse = fm._mse(train_arrays, w0, w_arr, V_arr)
        if not math.isfinite(mse):
            raise DivergenceDetected("non-finite train MSE")
        train_mse.append(mse)

    return fm.FMModel(w0, np.array(w), np.array(V), lambda_w, lambda_v, kdim,
                      history={"train_mse": train_mse, "lambdas": lambdas})


# ---------------------------------------------------------------------------
# FM prediction as it was before FMModel kept list views: each call converts
# the weights and factor rows of x's features, keyed by feature index, and
# runs the scalar forward pass on them. ``fm.fm_predict`` must equal it.

def _ref_active(x, model):
    _ref_check_indices(x, len(model.w))
    return {i: float(model.w[i]) for i, _ in x}, {i: model.V[i].tolist() for i, _ in x}


def _ref_forward(x, w0, w, V, kdim):
    y = w0
    sq = 0.0
    s = [0.0] * kdim
    for i, v in x:
        row = V[i]
        y += w[i] * v
        sq += sum(map(mul, row, row)) * v * v
        s = [a + r * v for a, r in zip(s, row)]
    return y + 0.5 * (sum(map(mul, s, s)) - sq), s


def fm_predict_reference(x, model):
    w, V = _ref_active(x, model)
    return float(_ref_forward(x, model.w0, w, V, model.kdim)[0])


def fm_predict_gradients_reference(x, model):
    w, V = _ref_active(x, model)
    _, s = _ref_forward(x, model.w0, w, V, model.kdim)
    grad_V = [(i, np.array([v * (a - r * v) for a, r in zip(s, V[i])])) for i, v in x]
    return 1.0, [(i, v) for i, v in x], grad_V


# ---------------------------------------------------------------------------
# CF queries by scanning: the implementation the index-backed queries in
# dishrec.cf and dishrec.evalx replaced. Every mean is recomputed on each
# call; raters, rated columns and an item's columns are found by looping over
# every user or column; the baseline, positive counts and side scores rescan
# every fragment or the whole partition; and run_benchmark gathers each
# query's held-out pairs by scanning every pair.

def _ref_global_mean(matrix):
    if not matrix.mask.any():
        return 3.0
    return float(matrix.ratings[matrix.mask].mean())


def _ref_user_mean(matrix, u):
    row = matrix.mask[u]
    if not row.any():
        return _ref_global_mean(matrix)
    return float(matrix.ratings[u, row].mean())


def _ref_column_mean(matrix, j):
    col = matrix.mask[:, j]
    if not col.any():
        return _ref_global_mean(matrix)
    return float(matrix.ratings[col, j].mean())


def columns_for_item_reference(matrix, item_id):
    return [j for j, (_, iid) in enumerate(matrix.columns) if iid == item_id]


def _ref_top_neighbors(sims, candidates, n_neighbors):
    ordered = sorted(candidates, key=lambda a: (-abs(sims[a]), a))
    if n_neighbors is not None:
        ordered = ordered[:n_neighbors]
    return ordered


def _ref_index(matrix, user_id, column):
    k = matrix.user_index.get(user_id)
    if k is None:
        raise UnknownUser(user_id)
    m = matrix.column_index.get(column)
    if m is None:
        raise UnknownColumn(str(column))
    return k, m


def predict_user_item_reference(user_id, column, matrix, user_sims, n_neighbors=20,
                                center="user", clamp=True):
    k, m = _ref_index(matrix, user_id, column)
    if not matrix.mask[k].any():
        return _ref_global_mean(matrix)
    base = _ref_user_mean(matrix, k)
    raters = [a for a in range(matrix.n_users) if a != k and matrix.mask[a, m]]
    neighbors = _ref_top_neighbors(user_sims[k], raters, n_neighbors)
    denom = 0.0
    for a in neighbors:
        denom += abs(user_sims[k, a])
    if denom == 0.0:
        pred = base
    else:
        col_mean = _ref_column_mean(matrix, m) if center == "item" else None
        num = 0.0
        for a in neighbors:
            center_a = _ref_user_mean(matrix, a) if center == "user" else col_mean
            num += user_sims[k, a] * (matrix.ratings[a, m] - center_a)
        pred = base + num / denom
    return float(min(5.0, max(1.0, pred))) if clamp else float(pred)


def predict_item_item_reference(user_id, column, matrix, column_sims, n_neighbors=20,
                                clamp=True):
    k, m = _ref_index(matrix, user_id, column)
    rated = [b for b in range(matrix.n_columns) if b != m and matrix.mask[k, b]]
    neighbors = _ref_top_neighbors(column_sims[m], rated, n_neighbors)
    denom = 0.0
    for b in neighbors:
        denom += abs(column_sims[m, b])
    if denom == 0.0:
        pred = _ref_user_mean(matrix, k) if matrix.mask[k].any() else _ref_global_mean(matrix)
    else:
        num = 0.0
        for b in neighbors:
            num += column_sims[m, b] * matrix.ratings[k, b]
        pred = num / denom
    return float(min(5.0, max(1.0, pred))) if clamp else float(pred)


def _ref_positive_counts(item_id, scored_fragments):
    counts = {}
    for f in scored_fragments:
        if f.item_id != item_id:
            continue
        counts.setdefault(f.restaurant_id, 0)
        if f.score > 0.0:
            counts[f.restaurant_id] += 1
    return counts


def _ref_baseline_predict(column, scored_fragments, fallback):
    restaurant_id, _ = column
    total = 0
    pos = 0
    for f in scored_fragments:
        if f.restaurant_id == restaurant_id:
            total += 1
            if f.score > 0.0:
                pos += 1
    if total == 0:
        return fallback
    return 1.0 + 4.0 * pos / total


def side_score_reference(engine, item_id, restaurant_id):
    """``Recommender.side_score`` from the engine's partition and scored
    fragments alone."""
    community = engine.partition.get(item_id)
    if community is None:
        return 0.0
    members = [i for i, c in engine.partition.items() if c == community and i != item_id]
    if not members:
        return 0.0
    positive_items = {f.item_id for f in engine.scored_fragments
                      if f.restaurant_id == restaurant_id and f.score > 0.0}
    hits = sum(1 for i in members if i in positive_items)
    return hits / len(members)


def predict_reference(engine, user_id, column, method):
    """``Recommender.predict`` by scanning; the FM path encodes with the
    engine's feature map and predicts with ``fm_predict_reference``."""
    if method == "user":
        return predict_user_item_reference(user_id, column, engine.matrix, engine.user_sims,
                                           engine.n_neighbors, engine.eq1_center)
    if method == "item":
        return predict_item_item_reference(user_id, column, engine.matrix, engine.column_sims,
                                           engine.n_neighbors)
    if method == "baseline":
        return _ref_baseline_predict(column, engine.scored_fragments,
                                     _ref_global_mean(engine.matrix))
    if method == "fm":
        x = engine.fm_features.encode(user_id, column)
        return float(min(5.0, max(1.0, fm_predict_reference(x, engine.fm_model))))
    return engine.predict(user_id, column, method)


def recommend_top_k_reference(engine, user_id, item_id, method="user", k=10, side_weight=0.2):
    cols = columns_for_item_reference(engine.matrix, item_id)
    if not cols:
        raise UnknownItem(str(item_id))
    if method == "baseline":
        counts = _ref_positive_counts(item_id, engine.scored_fragments)
        scored = [(rid, count + side_weight * side_score_reference(engine, item_id, rid))
                  for rid, count in counts.items()]
    else:
        scored = []
        for j in cols:
            column = engine.matrix.columns[j]
            value = predict_reference(engine, user_id, column, method)
            side = side_score_reference(engine, item_id, column[0])
            scored.append((column[0], value + side_weight * side))
    scored.sort(key=lambda rs: (-rs[1], rs[0]))
    return scored[:k]


def run_benchmark_reference(corpus, methods, seed=0, train_fraction=0.8, relevance=4.0,
                            top_k=5, side_weight=0.0, blend_weight=0.5):
    """``evalx.run_benchmark`` (NB sentiment) answered through the scans above."""
    train_reviews, test_reviews = evalx.train_test_split(corpus.reviews, train_fraction, seed)
    engine = pipeline.build_recommender(corpus, seed=seed, blend_weight=blend_weight,
                                        with_fm="fm" in methods, reviews=train_reviews)
    token_map = pipeline.normalize_reviews(test_reviews, corpus.lexicons)
    test_fragments = pipeline.make_fragments(test_reviews, token_map, corpus.items)
    truth = evalx._held_out_truth(corpus, test_reviews, test_fragments, blend_weight)
    matrix = engine.matrix
    pairs = sorted((u, c) for (u, c) in truth
                   if u in matrix.user_index and c in matrix.column_index)
    reports = []
    for method in methods:
        preds = [predict_reference(engine, u, c, method) for u, c in pairs]
        golds = [truth[(u, c)] for u, c in pairs]
        pred_cls = ["positive" if p >= relevance else "negative" for p in preds]
        gold_cls = ["positive" if g >= relevance else "negative" for g in golds]
        tp, fp, fn, tn = evalx.confusion(pred_cls, gold_cls)
        recommended = {}
        held = {}
        for user_id, item_id in sorted({(u, c[1]) for u, c in pairs}):
            try:
                ranked = recommend_top_k_reference(engine, user_id, item_id, method,
                                                   top_k, side_weight)
            except QueryError:
                continue
            recommended[(user_id, item_id)] = [(rid, item_id) for rid, _ in ranked]
            held[(user_id, item_id)] = {c: truth[(u, c)] for (u, c) in pairs
                                        if u == user_id and c[1] == item_id}
        try:
            prec = evalx.precision_at_k(recommended, held, relevance)
        except UndefinedMetric:
            prec = float("nan")
        reports.append(evalx.EvalReport(
            method=method,
            rmse=evalx.rmse(preds, golds) if preds else float("nan"),
            mae=evalx.mae(preds, golds) if preds else float("nan"),
            precision=prec, f_score=evalx.f_score(pred_cls, gold_cls),
            tp=tp, fp=fp, fn=fn, tn=tn, seed=seed,
        ))
    return reports


# ---------------------------------------------------------------------------
# LSTM trainer with one weight matrix per gate: the implementation the
# stacked-gate kernel in dishrec.lstm replaced. Parameters live in a
# namespace with E, W_i..W_c, U_i..U_c, b_i..b_c, w_out and b_out (the
# per-gate names are also the keys of a saved LSTM document). Each step does
# eight gate matmuls forward and eight outer products backward and keeps its
# activations in a dict.

LSTM_REFERENCE_PARAMS = ("E", "W_i", "W_f", "W_o", "W_c", "U_i", "U_f", "U_o", "U_c",
                         "b_i", "b_f", "b_o", "b_c", "w_out", "b_out")


def lstm_init_reference(vocab_size, d_embed=16, d_hidden=16, seed=0):
    """Per-gate initial parameters, drawn in the original order."""
    rng = np.random.default_rng(seed)

    def u(*shape):
        return rng.uniform(-0.1, 0.1, size=shape)

    return SimpleNamespace(
        E=u(vocab_size, d_embed),
        W_i=u(d_hidden, d_embed), W_f=u(d_hidden, d_embed),
        W_o=u(d_hidden, d_embed), W_c=u(d_hidden, d_embed),
        U_i=u(d_hidden, d_hidden), U_f=u(d_hidden, d_hidden),
        U_o=u(d_hidden, d_hidden), U_c=u(d_hidden, d_hidden),
        b_i=u(d_hidden), b_f=np.ones(d_hidden), b_o=u(d_hidden), b_c=u(d_hidden),
        w_out=u(d_hidden), b_out=float(u(1)[0]),
    )


def lstm_per_gate(params):
    """Copy stacked LSTMParams into a per-gate namespace."""
    d_h = len(params.w_out)
    out = SimpleNamespace(E=params.E.copy(), w_out=params.w_out.copy(), b_out=params.b_out)
    for stacked in ("W", "U", "b"):
        full = getattr(params, stacked)
        for k, gate in enumerate("ifoc"):
            setattr(out, f"{stacked}_{gate}", full[k * d_h:(k + 1) * d_h].copy())
    return out


def _ref_sigmoid(z):
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def lstm_forward_reference(indices, p):
    d_h = len(p.b_i)
    h = np.zeros(d_h)
    c = np.zeros(d_h)
    steps = []
    for idx in indices:
        e = p.E[idx]
        i = _ref_sigmoid(p.W_i @ e + p.U_i @ h + p.b_i)
        f = _ref_sigmoid(p.W_f @ e + p.U_f @ h + p.b_f)
        o = _ref_sigmoid(p.W_o @ e + p.U_o @ h + p.b_o)
        c_tilde = np.tanh(p.W_c @ e + p.U_c @ h + p.b_c)
        c_new = f * c + i * c_tilde
        tanh_c = np.tanh(c_new)
        h_new = o * tanh_c
        steps.append({"idx": idx, "e": e, "h_prev": h, "c_prev": c,
                      "i": i, "f": f, "o": o, "c_tilde": c_tilde,
                      "c": c_new, "tanh_c": tanh_c, "h": h_new})
        h, c = h_new, c_new
    score = float(np.tanh(p.w_out @ h + p.b_out))
    return score, {"steps": steps, "score": score, "h_final": h, "params": p}


def lstm_backward_reference(cache, label):
    """Gradients as a dict keyed by LSTM_REFERENCE_PARAMS."""
    p = cache["params"]
    score = cache["score"]
    g = {name: np.zeros_like(getattr(p, name)) for name in LSTM_REFERENCE_PARAMS[:-1]}
    d_pre_out = 2.0 * (score - label) * (1.0 - score * score)
    g["w_out"] += d_pre_out * cache["h_final"]
    g["b_out"] = 0.0 + d_pre_out

    dh = d_pre_out * p.w_out
    dc = np.zeros(len(p.b_i))
    for step in reversed(cache["steps"]):
        i, f, o = step["i"], step["f"], step["o"]
        c_tilde, tanh_c = step["c_tilde"], step["tanh_c"]
        do = dh * tanh_c
        dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
        da = {
            "i": dc * c_tilde * i * (1.0 - i),
            "f": dc * step["c_prev"] * f * (1.0 - f),
            "o": do * o * (1.0 - o),
            "c": dc * i * (1.0 - c_tilde * c_tilde),
        }
        for gate in "ifoc":
            g["W_" + gate] += np.outer(da[gate], step["e"])
            g["U_" + gate] += np.outer(da[gate], step["h_prev"])
            g["b_" + gate] += da[gate]
        g["E"][step["idx"]] += (p.W_i.T @ da["i"] + p.W_f.T @ da["f"]
                                + p.W_o.T @ da["o"] + p.W_c.T @ da["c"])
        dh = p.U_i.T @ da["i"] + p.U_f.T @ da["f"] + p.U_o.T @ da["o"] + p.U_c.T @ da["c"]
        dc = dc * f
    return g


def lstm_train_reference(corpus, params, lr=0.05, epochs=50, seed=0, clip_threshold=None):
    """Per-sample SGD on a per-gate namespace; returns (namespace, epoch losses)."""
    p = SimpleNamespace(**{name: (v.copy() if isinstance(v, np.ndarray) else v)
                           for name, v in vars(params).items()})
    rng = np.random.default_rng(seed)
    n = len(corpus)
    losses = []
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            total = 0.0
            for k in rng.permutation(n):
                indices, label = corpus[k]
                score, cache = lstm_forward_reference(indices, p)
                loss = (score - label) ** 2
                if not np.isfinite(loss):
                    raise DivergenceDetected(f"loss became {loss}")
                total += loss
                g = lstm_backward_reference(cache, label)
                if clip_threshold is not None:
                    norm = max([abs(g["b_out"])] + [float(np.max(np.abs(g[name])))
                                                    for name in LSTM_REFERENCE_PARAMS[:-1]])
                    if norm > clip_threshold:
                        g = {name: v * (clip_threshold / norm) for name, v in g.items()}
                for name in LSTM_REFERENCE_PARAMS:
                    setattr(p, name, getattr(p, name) - lr * g[name])
            losses.append(total / n)
    return p, losses


@dataclass
class TopicModelReference:
    n_topics: int
    alpha: float
    beta: float
    vocab_tokens: list[str]
    docs: list[list[int]]                 # token ids per document
    doc_topic: list[list[int]] = field(default_factory=list)   # n_{d,k}
    topic_word: list[list[int]] = field(default_factory=list)  # n_{k,w}
    topic_total: list[int] = field(default_factory=list)       # n_{k,.}
    assignments: list[list[int]] = field(default_factory=list)
    _rng: random.Random = field(default=None, repr=False)

    @property
    def vocab_size(self):
        return len(self.vocab_tokens)

    def init_assignments(self, seed: int):
        self._rng = random.Random(seed)
        K = self.n_topics
        self.doc_topic = [[0] * K for _ in self.docs]
        self.topic_word = [[0] * self.vocab_size for _ in range(K)]
        self.topic_total = [0] * K
        self.assignments = []
        for d, doc in enumerate(self.docs):
            zs = []
            for w in doc:
                k = self._rng.randrange(K)
                zs.append(k)
                self.doc_topic[d][k] += 1
                self.topic_word[k][w] += 1
                self.topic_total[k] += 1
            self.assignments.append(zs)

    def sweep(self):
        """Resample every token's topic once from the collapsed conditional."""
        K = self.n_topics
        beta_v = self.beta * self.vocab_size
        rng = self._rng
        for d, doc in enumerate(self.docs):
            ndk = self.doc_topic[d]
            zs = self.assignments[d]
            for j, w in enumerate(doc):
                k = zs[j]
                ndk[k] -= 1
                self.topic_word[k][w] -= 1
                self.topic_total[k] -= 1

                total = 0.0
                weights = []
                for t in range(K):
                    p = (ndk[t] + self.alpha) * (self.topic_word[t][w] + self.beta) \
                        / (self.topic_total[t] + beta_v)
                    total += p
                    weights.append(total)
                r = rng.random() * total
                k_new = 0
                while weights[k_new] <= r and k_new < K - 1:
                    k_new += 1

                zs[j] = k_new
                ndk[k_new] += 1
                self.topic_word[k_new][w] += 1
                self.topic_total[k_new] += 1

    def word_probabilities(self, topic: int) -> list[float]:
        beta_v = self.beta * self.vocab_size
        denom = self.topic_total[topic] + beta_v
        return [(self.topic_word[topic][w] + self.beta) / denom for w in range(self.vocab_size)]


def lda_train_reference(documents, n_topics: int = 10, alpha: float | None = None,
              beta: float = 0.01, iterations: int = 500, seed: int = 0) -> TopicModelReference:
    """The topic-major Gibbs sampler with its per-topic weight loop and linear
    draw; `sides.lda_train` must match it exactly, sweep by sweep.

    alpha defaults to 50 / n_topics.
    """
    docs_tokens = [list(doc) for doc in documents]
    if not docs_tokens or all(not d for d in docs_tokens):
        raise EmptyCorpus("no documents with tokens")
    if n_topics < 1:
        raise ValueError("n_topics must be >= 1")
    vocab = sorted({t for doc in docs_tokens for t in doc})
    token_index = {t: i for i, t in enumerate(vocab)}
    docs = [[token_index[t] for t in doc] for doc in docs_tokens]
    model = TopicModelReference(
        n_topics=n_topics,
        alpha=50.0 / n_topics if alpha is None else alpha,
        beta=beta,
        vocab_tokens=vocab,
        docs=docs,
    )
    model.init_assignments(seed)
    for _ in range(iterations):
        model.sweep()
    return model


# ---------------------------------------------------------------------------
# Review fragmenter as it was before the one-pass scan in dishrec.fragmenter:
# find_mentions rebuilds the alias index for every review, then
# scope_fragments splits clauses and attaches them.

@dataclass(frozen=True)
class Mention:
    item_id: int
    start: int
    end: int  # half-open span into the review token list


def find_mentions(tokens, items) -> list[Mention]:
    """Greedy longest-match-first, left-to-right scan for item aliases.

    Multi-token aliases win over shorter ones starting at the same position,
    and a matched token is consumed (each token belongs to at most one
    mention).
    """
    by_first = {}
    for it in items:
        for alias in it.aliases:
            by_first.setdefault(alias[0], []).append((alias, it.item_id))
    for cands in by_first.values():
        cands.sort(key=lambda c: (-len(c[0]), c[0]))

    mentions = []
    i = 0
    n = len(tokens)
    while i < n:
        matched = False
        for alias, item_id in by_first.get(tokens[i], ()):
            end = i + len(alias)
            if end <= n and tuple(tokens[i:end]) == alias:
                mentions.append(Mention(item_id, i, end))
                i = end
                matched = True
                break
        if not matched:
            i += 1
    return mentions


@dataclass(frozen=True)
class _Clause:
    ordinal: int
    sentence: int
    indices: tuple[int, ...]  # token indices, markers excluded


def _split_clauses(tokens) -> list[_Clause]:
    clauses = []
    current = []
    sentence = 0

    def close():
        if current:
            clauses.append(_Clause(len(clauses), sentence, tuple(current)))
            current.clear()

    for idx, tok in enumerate(tokens):
        if tok == SENT_BREAK:
            close()
            sentence += 1
        elif tok in CLAUSE_MARKERS:
            close()
        else:
            current.append(idx)
    close()
    return clauses


def scope_fragments(tokens, mentions, review_id="") -> list[ItemFragment]:
    """Assign clause tokens to the items mentioned in each clause.

    The review is segmented into clauses at clause markers. Every clause's
    tokens go to all items mentioned inside it (shared modifiers are
    duplicated). A clause with no mention attaches to the nearest preceding
    mention in the same sentence, else the nearest following one, else it is
    dropped. One fragment per item, clauses concatenated in order.
    """
    if not mentions:
        return []
    clauses = _split_clauses(tokens)
    clause_of_token = {}
    for cl in clauses:
        for idx in cl.indices:
            clause_of_token[idx] = cl.ordinal

    mentions = sorted(mentions, key=lambda m: m.start)
    mention_clause = [clause_of_token[m.start] for m in mentions]
    clause_mentions = {}
    for m_i, cl_i in enumerate(mention_clause):
        clause_mentions.setdefault(cl_i, []).append(m_i)

    # item -> ordered clause ordinals (deduplicated)
    assigned: dict[int, list[int]] = {}

    def assign(item_id, clause_ordinal):
        lst = assigned.setdefault(item_id, [])
        if clause_ordinal not in lst:
            lst.append(clause_ordinal)

    for cl in clauses:
        here = clause_mentions.get(cl.ordinal)
        if here:
            for m_i in here:
                assign(mentions[m_i].item_id, cl.ordinal)
            continue
        if not cl.indices:
            continue
        first, last = cl.indices[0], cl.indices[-1]
        preceding = [
            m_i
            for m_i, m in enumerate(mentions)
            if m.end <= first and clauses[mention_clause[m_i]].sentence == cl.sentence
        ]
        if preceding:
            nearest = max(preceding, key=lambda m_i: mentions[m_i].end)
            assign(mentions[nearest].item_id, cl.ordinal)
            continue
        following = [
            m_i
            for m_i, m in enumerate(mentions)
            if m.start >= last and clauses[mention_clause[m_i]].sentence == cl.sentence
        ]
        if following:
            nearest = min(following, key=lambda m_i: mentions[m_i].start)
            assign(mentions[nearest].item_id, cl.ordinal)

    # emit one fragment per item, in first-mention order
    order = []
    first_clause = {}
    for m_i, m in enumerate(mentions):
        if m.item_id not in first_clause:
            first_clause[m.item_id] = mention_clause[m_i]
            order.append(m.item_id)

    fragments = []
    for item_id in order:
        clause_ordinals = sorted(assigned.get(item_id, []))
        toks = []
        for ordinal in clause_ordinals:
            toks.extend(tokens[i] for i in clauses[ordinal].indices)
        if toks:
            fragments.append(
                ItemFragment(review_id, item_id, tuple(toks), first_clause[item_id])
            )
    return fragments


def make_fragments_reference(reviews, token_map, items):
    """The per-review find_mentions + scope_fragments pair that
    `pipeline.make_fragments` must equal."""
    fragments = []
    for r in reviews:
        tokens = token_map[r.review_id]
        mentions = find_mentions(tokens, items)
        fragments.extend(scope_fragments(tokens, mentions, review_id=r.review_id))
    return fragments


# ---------------------------------------------------------------------------
# corpus.normalize as it was before its token passes were folded into one
# loop: the "and then" merge, slang expansion and the stopword filter each
# walk the whole token list.

def normalize_reference(text, lex):
    """Normalize raw review text to a token list.

    Fixed pipeline order:

    1. emoticon replacement on the raw string, longest emoticon first;
    2. lowercasing (POS_EMO/NEG_EMO sentinels keep their case);
    3. punctuation handling: apostrophes deleted, ``.!?;`` runs become the
       sentence-break marker, every other punctuation character becomes a
       space, then whitespace tokenization and merging of the bigram
       "and then" into the clause marker "and-then";
    4. slang expansion, one left-to-right pass (expansions are not re-expanded);
    5. stopword removal; sentinels and clause markers are never removed.
    """
    for emo in lex._emoticons_longest_first:
        if emo in text:
            text = text.replace(emo, f" {lex.emoticon_map[emo]} ")

    text = _lowercase_keeping_sentinels(text)

    text = text.replace("'", "").replace("’", "")
    # markers from a previous normalize() pass must survive re-normalization
    text = text.replace(SENT_BREAK, "\x00")
    text = text.replace("<", " ").replace(">", " ")
    text = _SENT_PUNCT_RE.sub(" \x00 ", text)
    text = _OTHER_PUNCT_RE.sub(" ", text)
    text = text.replace("\x00", f" {SENT_BREAK} ")

    raw_tokens = text.split()
    tokens = []
    i = 0
    while i < len(raw_tokens):
        if raw_tokens[i] == "and" and i + 1 < len(raw_tokens) and raw_tokens[i + 1] == "then":
            tokens.append("and-then")
            i += 2
        else:
            tokens.append(raw_tokens[i])
            i += 1

    expanded = []
    for tok in tokens:
        if tok not in PROTECTED_TOKENS and tok in lex.slang_map:
            expanded.extend(lex.slang_map[tok])
        else:
            expanded.append(tok)

    return [t for t in expanded if t in PROTECTED_TOKENS or t not in lex.stopwords]
