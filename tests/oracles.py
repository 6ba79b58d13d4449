"""Independent reference implementations used as test oracles.

Everything here is deliberately written in a different style from the
package (dict-based bookkeeping, explicit scalar loops, no shared helpers)
so that agreement between the two paths is meaningful.
"""

import math
from types import SimpleNamespace

import numpy as np

from dishrec import evalx, pipeline
from dishrec.errors import (
    DivergenceDetected,
    FeatureIndexOutOfRange,
    InvalidConfig,
    QueryError,
    UndefinedMetric,
    UnknownColumn,
    UnknownItem,
    UnknownUser,
)


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
# Factorization machine trainer, numpy per step: the implementation the fused
# scalar kernel in dishrec.fm replaced. Per SGD step it recomputes the factor
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
    denom = sum(abs(user_sims[k, a]) for a in neighbors)
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
    denom = sum(abs(column_sims[m, b]) for b in neighbors)
    if denom == 0.0:
        pred = _ref_user_mean(matrix, k) if matrix.mask[k].any() else _ref_global_mean(matrix)
    else:
        num = sum(column_sims[m, b] * matrix.ratings[k, b] for b in neighbors)
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


def _ref_side_score(engine, item_id, restaurant_id):
    community = engine.partition.get(item_id)
    if community is None:
        return 0.0
    members = [i for i, c in engine.partition.items() if c == community and i != item_id]
    if not members:
        return 0.0
    hits = sum(1 for i in members if (restaurant_id, i) in engine._positive)
    return hits / len(members)


def predict_reference(engine, user_id, column, method):
    """``Recommender.predict`` by scanning; the FM path is the engine's own."""
    if method == "user":
        return predict_user_item_reference(user_id, column, engine.matrix, engine.user_sims,
                                           engine.n_neighbors, engine.eq1_center)
    if method == "item":
        return predict_item_item_reference(user_id, column, engine.matrix, engine.column_sims,
                                           engine.n_neighbors)
    if method == "baseline":
        return _ref_baseline_predict(column, engine.scored_fragments,
                                     _ref_global_mean(engine.matrix))
    return engine.predict(user_id, column, method)


def recommend_top_k_reference(engine, user_id, item_id, method="user", k=10, side_weight=0.2):
    cols = columns_for_item_reference(engine.matrix, item_id)
    if not cols:
        raise UnknownItem(str(item_id))
    if method == "baseline":
        counts = _ref_positive_counts(item_id, engine.scored_fragments)
        scored = [(rid, count + side_weight * _ref_side_score(engine, item_id, rid))
                  for rid, count in counts.items()]
    else:
        scored = []
        for j in cols:
            column = engine.matrix.columns[j]
            value = predict_reference(engine, user_id, column, method)
            side = _ref_side_score(engine, item_id, column[0])
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
