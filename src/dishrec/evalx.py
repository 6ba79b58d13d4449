"""Metrics, seeded splitting, ground-truth derivation and the end-to-end
benchmark harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cf import derive_item_rating
from .corpus import NEGATIVE, POSITIVE
from .errors import QueryError, UndefinedMetric
from .pipeline import build_recommender, fragment_labels_for, make_fragments, normalize_reviews
from .synth import CorpusData

SPLIT_ROUNDS = ("floor", "round")


@dataclass
class EvalReport:
    method: str
    rmse: float
    mae: float
    precision: float
    f_score: float
    tp: int
    fp: int
    fn: int
    tn: int
    seed: int

    def to_dict(self):
        return {
            "method": self.method,
            "rmse": self.rmse,
            "mae": self.mae,
            "precision": self.precision,
            "f_score": self.f_score,
            "confusion": {"tp": self.tp, "fp": self.fp, "fn": self.fn, "tn": self.tn},
            "seed": self.seed,
        }


def train_test_split(items, train_fraction: float = 0.8, seed: int = 0,
                     split_round: str = "floor"):
    """Seeded uniform shuffle, then split; disjoint and exhaustive.

    split_round picks how the train size is rounded: "floor" (default) or
    "round" (half-up).
    """
    if not 0.0 <= train_fraction <= 1.0:
        raise ValueError("train_fraction must be in [0, 1]")
    if split_round not in SPLIT_ROUNDS:
        raise ValueError(f"split_round must be one of {SPLIT_ROUNDS}")
    items = list(items)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(items))
    exact = train_fraction * len(items)
    n_train = math.floor(exact) if split_round == "floor" else math.floor(exact + 0.5)
    train = [items[i] for i in order[:n_train]]
    test = [items[i] for i in order[n_train:]]
    return train, test


def confusion(predictions, golds):
    tp = fp = fn = tn = 0
    for p, g in zip(predictions, golds):
        if p == POSITIVE and g == POSITIVE:
            tp += 1
        elif p == POSITIVE and g == NEGATIVE:
            fp += 1
        elif p == NEGATIVE and g == POSITIVE:
            fn += 1
        else:
            tn += 1
    return tp, fp, fn, tn


def f_score(predictions, golds) -> float:
    """F1 of the positive class: 2TP / (2TP + FP + FN).

    With no positives anywhere (denominator 0) the score is vacuously 1.
    """
    tp, fp, fn, _ = confusion(predictions, golds)
    denom = 2 * tp + fp + fn
    if denom == 0:
        return 1.0
    return 2 * tp / denom


def rmse(predictions, golds) -> float:
    predictions = np.asarray(predictions, dtype=np.float64)
    golds = np.asarray(golds, dtype=np.float64)
    return float(np.sqrt(np.mean((predictions - golds) ** 2)))


def mae(predictions, golds) -> float:
    predictions = np.asarray(predictions, dtype=np.float64)
    golds = np.asarray(golds, dtype=np.float64)
    return float(np.mean(np.abs(predictions - golds)))


def precision_at_k(recommended, held_out, relevance: float = 4.0) -> float:
    """Mean per-query precision of recommendations that have held-out ratings.

    recommended: query -> ordered list of recommended columns.
    held_out: query -> {column: rating}. Recommendations without a held-out
    rating do not count either way; queries with no overlap at all are
    excluded from the mean. Raises UndefinedMetric when every query is
    excluded.
    """
    values = []
    for query, recs in recommended.items():
        ratings = held_out.get(query, {})
        overlap = [c for c in recs if c in ratings]
        if not overlap:
            continue
        hits = sum(1 for c in overlap if ratings[c] >= relevance)
        values.append(hits / len(overlap))
    if not values:
        raise UndefinedMetric("no query has held-out overlap")
    return float(np.mean(values))


def fleiss_kappa(label_matrix) -> float:
    """Fleiss' kappa for items x annotators categorical labels."""
    rows = [list(row) for row in label_matrix]
    if not rows:
        raise ValueError("empty label matrix")
    n = len(rows[0])
    if n < 2 or any(len(row) != n for row in rows):
        raise ValueError("need the same >= 2 annotators per item")
    categories = sorted({lab for row in rows for lab in row}, key=str)
    counts = np.array([[row.count(c) for c in categories] for row in rows], dtype=np.float64)
    N = len(rows)
    p_i = (np.sum(counts * counts, axis=1) - n) / (n * (n - 1))
    p_bar = float(np.mean(p_i))
    p_j = counts.sum(axis=0) / (N * n)
    p_e = float(np.sum(p_j * p_j))
    if abs(1.0 - p_e) < 1e-15:
        return 1.0
    return (p_bar - p_e) / (1.0 - p_e)


# ---------------------------------------------------------------------------
# End-to-end benchmark

BENCHMARK_METHODS = ("baseline", "user", "item", "fm")


def _held_out_truth(corpus: CorpusData, test_reviews, test_fragments, blend_weight):
    """(user, column) -> gold rating for the test split.

    Planted gold ratings are used when the corpus carries them; otherwise
    the truth is derived from the test review's stars and its gold fragment
    label (the same derivation the pipeline applies on the training side).
    Repeated mentions of one (user, column) are averaged, as RatingMatrix
    averages them on the training side.
    """
    labels = fragment_labels_for(corpus, test_fragments, "manual")
    by_id = {r.review_id: r for r in test_reviews}
    golds = {}
    for f in test_fragments:
        review = by_id[f.review_id]
        key = (review.user_id, (review.restaurant_id, f.item_id))
        gold = corpus.gold_ratings.get((review.user_id, review.restaurant_id, f.item_id))
        if gold is None:
            label = labels.get((f.review_id, f.item_id))
            sentiment = 0.0 if label is None else (1.0 if label == POSITIVE else -1.0)
            gold = derive_item_rating(review.stars, sentiment, blend_weight)
        golds.setdefault(key, []).append(gold)
    return {key: sum(values) / len(values) for key, values in golds.items()}


def run_benchmark(corpus: CorpusData, methods=BENCHMARK_METHODS, seed: int = 0,
                  relevance: float = 4.0, top_k: int = 5,
                  side_weight: float = 0.0, blend_weight: float = 0.5) -> list[EvalReport]:
    """80/20 split -> NB sentiment -> ratings -> each recommender -> metrics.

    Held-out pairs are the test reviews' (user, column) mentions whose user
    and column are known to the training matrix, so every method is scored
    on the identical pair set. Deterministic given (corpus, seed).
    """
    for m in methods:
        if m not in BENCHMARK_METHODS:
            raise ValueError(f"unknown method {m!r}")
    train_reviews, test_reviews = train_test_split(corpus.reviews, 0.8, seed)
    engine = build_recommender(
        corpus, seed=seed, blend_weight=blend_weight, with_fm="fm" in methods,
        reviews=train_reviews,
    )
    token_map = normalize_reviews(test_reviews, corpus.lexicons)
    test_fragments = make_fragments(test_reviews, token_map, corpus.items)
    truth = _held_out_truth(corpus, test_reviews, test_fragments, blend_weight)

    matrix = engine.matrix
    pairs = sorted(
        (user_id, column)
        for (user_id, column) in truth
        if user_id in matrix.user_index and column in matrix.column_index
    )

    golds = [truth[pair] for pair in pairs]
    gold_cls = [POSITIVE if g >= relevance else NEGATIVE for g in golds]
    # (user, item) query -> {column: gold} of its held-out pairs
    held = {}
    for user_id, column in pairs:
        held.setdefault((user_id, column[1]), {})[column] = truth[(user_id, column)]

    reports = []
    for method in methods:
        preds = [engine.predict(user_id, column, method) for user_id, column in pairs]
        pred_cls = [POSITIVE if p >= relevance else NEGATIVE for p in preds]
        tp, fp, fn, tn = confusion(pred_cls, gold_cls)

        recommended = {}
        for user_id, item_id in sorted(held):
            try:
                ranked = engine.recommend_top_k(user_id, item_id, method=method,
                                                k=top_k, side_weight=side_weight)
            except QueryError:
                continue
            recommended[(user_id, item_id)] = [(rid, item_id) for rid, _ in ranked]
        try:
            prec = precision_at_k(recommended, held, relevance)
        except UndefinedMetric:
            prec = float("nan")

        reports.append(EvalReport(
            method=method,
            rmse=rmse(preds, golds) if preds else float("nan"),
            mae=mae(preds, golds) if preds else float("nan"),
            precision=prec,
            f_score=f_score(pred_cls, gold_cls),
            tp=tp, fp=fp, fn=fn, tn=tn,
            seed=seed,
        ))
    return reports


def format_report_table(reports) -> str:
    """Aligned plain-text table, one row per method."""
    header = f"{'method':<10} {'rmse':>8} {'mae':>8} {'precision':>10} {'f_score':>8}"
    lines = [header, "-" * len(header)]
    for r in reports:
        lines.append(
            f"{r.method:<10} {r.rmse:>8.4f} {r.mae:>8.4f} {r.precision:>10.4f} {r.f_score:>8.4f}"
        )
    return "\n".join(lines)
