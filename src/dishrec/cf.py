"""Sparse user x (restaurant, item) rating matrix and memory-based
collaborative filtering.

Columns are (restaurant_id, item_id) pairs, so "recommend a restaurant for
an item" means ranking that item's columns. Similarities are plain cosine
over the zero-filled rating vectors; predictions are the two weighted
neighborhood formulas plus a positive-count baseline.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from . import fm
from .errors import InvalidConfig, UnknownColumn, UnknownItem, UnknownUser

EQ1_CENTERS = ("user", "item")  # deviation baselines of predict_user_item


def derive_item_rating(stars: float, sentiment: float, blend_weight: float = 0.5) -> float:
    """Blend the review star rating with the fragment sentiment score.

    rating = clamp(stars + 2*sentiment*blend_weight, 1, 5). With weight 0 the
    review stars pass through unchanged.
    """
    return float(min(5.0, max(1.0, stars + 2.0 * sentiment * blend_weight)))


@dataclass(frozen=True)
class ScoredFragment:
    """A per-item fragment with its classifier score and review context."""

    review_id: str
    user_id: str
    restaurant_id: str
    item_id: int
    score: float
    stars: float


@dataclass
class RatingMatrix:
    """Users x (restaurant, item) columns of ratings in [1, 5].

    Read-only after construction: the per-user and per-column means, the
    global mean, the item -> columns index and the rating entries are built
    once, in ``__post_init__``, and would go stale if ``ratings`` or
    ``mask`` changed. The entries are per user ``(column, rating)`` and per
    column ``(user, rating)``, both in index order; ``user_columns`` and
    ``column_users`` hold the same indices as integer arrays, so a query
    fetches all its candidates' similarities in one numpy call.
    """

    user_ids: list[str]
    columns: list[tuple[str, int]]  # (restaurant_id, item_id)
    ratings: np.ndarray             # zeros where missing
    mask: np.ndarray                # True where rated

    def __post_init__(self):
        self.user_index = {u: i for i, u in enumerate(self.user_ids)}
        self.column_index = {c: j for j, c in enumerate(self.columns)}
        self.item_columns: dict[int, list[int]] = {}
        for j, (_, item_id) in enumerate(self.columns):
            self.item_columns.setdefault(item_id, []).append(j)
        # 3.0, the midpoint of the rating scale, when nothing is rated
        self._global_mean = float(self.ratings[self.mask].mean()) if self.mask.any() else 3.0
        self.user_entries: list[list[tuple[int, float]]] = [[] for _ in self.user_ids]
        self.column_entries: list[list[tuple[int, float]]] = [[] for _ in self.columns]
        rows, cols = np.nonzero(self.mask)
        for u, j, r in zip(rows.tolist(), cols.tolist(), self.ratings[rows, cols].tolist()):
            self.user_entries[u].append((j, r))
            self.column_entries[j].append((u, r))
        self.user_columns = [np.array([j for j, _ in e], dtype=np.intp)
                             for e in self.user_entries]
        self.column_users = [np.array([u for u, _ in e], dtype=np.intp)
                             for e in self.column_entries]
        # np.mean over the entries' ratings in index order: the same array,
        # and so the same float, as the mean over the masked row or column
        self.user_means = [float(np.mean([r for _, r in e])) if e else self._global_mean
                           for e in self.user_entries]
        self.column_means = [float(np.mean([r for _, r in e])) if e else self._global_mean
                             for e in self.column_entries]

    @property
    def n_users(self):
        return len(self.user_ids)

    @property
    def n_columns(self):
        return len(self.columns)

    def user_mean(self, u: int) -> float:
        return self.user_means[u]

    def column_mean(self, j: int) -> float:
        return self.column_means[j]

    def global_mean(self) -> float:
        return self._global_mean

    def columns_for_item(self, item_id: int) -> list[int]:
        return list(self.item_columns.get(item_id, ()))

    @classmethod
    def from_entries(cls, entries) -> "RatingMatrix":
        """Build from (user_id, restaurant_id, item_id, rating) tuples.

        Several entries for the same (user, column) are averaged. Users and
        columns are index-ordered by sorted id for determinism.
        """
        sums = defaultdict(float)
        counts = defaultdict(int)
        users = set()
        cols = set()
        for user_id, restaurant_id, item_id, rating in entries:
            if not 1.0 <= rating <= 5.0:
                raise ValueError(f"rating {rating} outside [1, 5]")
            key = (user_id, (restaurant_id, item_id))
            sums[key] += rating
            counts[key] += 1
            users.add(user_id)
            cols.add((restaurant_id, item_id))
        user_ids = sorted(users)
        columns = sorted(cols)
        uix = {u: i for i, u in enumerate(user_ids)}
        cix = {c: j for j, c in enumerate(columns)}
        ratings = np.zeros((len(user_ids), len(columns)))
        mask = np.zeros((len(user_ids), len(columns)), dtype=bool)
        for (u, c), s in sums.items():
            ratings[uix[u], cix[c]] = s / counts[(u, c)]
            mask[uix[u], cix[c]] = True
        return cls(user_ids, columns, ratings, mask)


def build_rating_matrix(scored_fragments, blend_weight: float = 0.5) -> RatingMatrix:
    """Derive item-level ratings from scored fragments and assemble the matrix."""
    return RatingMatrix.from_entries(
        (
            f.user_id,
            f.restaurant_id,
            f.item_id,
            derive_item_rating(f.stars, f.score, blend_weight),
        )
        for f in scored_fragments
    )


def cosine_sim(a, b) -> float:
    """Plain cosine a.b/(|a||b|) over the full vectors; 0 when either norm is 0.

    The denominator is computed as sqrt(|a|^2 * |b|^2): one rounding instead
    of two, so rational results like 4/5 come out exact.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na2 = float(a @ a)
    nb2 = float(b @ b)
    if na2 == 0.0 or nb2 == 0.0:
        return 0.0
    return float(a @ b / np.sqrt(na2 * nb2))


def _cosine_matrix(M: np.ndarray) -> np.ndarray:
    """Cosine of every pair of rows of M, summed over M's nonzero entries:
    every two entries in one column add the product of their unit values to
    their rows' pair, in column order, so S is exactly symmetric and a zero
    row stays a zero row.

    Rating rows are a few percent full, so this is faster than the dense
    ``unit @ unit.T``, and it makes no BLAS call: a threaded BLAS product
    leaves its worker threads spinning for tens of milliseconds after it
    returns, which stalls the queries that follow a build, and its last
    bits depend on the BLAS build and thread count.
    """
    n = len(M)
    norms = np.sqrt((M * M).sum(axis=1))
    safe = np.where(norms == 0.0, 1.0, norms)
    unit = M / safe[:, None]
    cols, rows = np.nonzero(unit.T)  # the entries grouped by column, rows ascending
    vals = unit[rows, cols]
    counts = np.bincount(cols)
    size = counts[cols]                          # entries in each entry's column
    start = (np.cumsum(counts) - counts)[cols]   # that column's first entry
    # each entry paired with every entry of its column, itself included
    left = np.repeat(np.arange(len(cols)), size)
    right = np.repeat(start, size) + np.arange(len(left)) - np.repeat(np.cumsum(size) - size, size)
    # bincount adds its weights in input order, the column order; with no
    # entries at all it returns integers, hence the cast
    S = np.bincount(rows[left] * n + rows[right], weights=vals[left] * vals[right],
                    minlength=n * n).reshape(n, n).astype(float, copy=False)
    np.clip(S, -1.0, 1.0, out=S)
    nonzero = np.flatnonzero(norms > 0.0)
    S[nonzero, nonzero] = 1.0  # unit diagonal for nonzero rows
    return S


def user_similarity(matrix: RatingMatrix) -> np.ndarray:
    """User x user cosine similarity of zero-filled rating rows."""
    return _cosine_matrix(matrix.ratings)


def column_similarity(matrix: RatingMatrix) -> np.ndarray:
    """Column x column cosine similarity of zero-filled rating columns."""
    return _cosine_matrix(matrix.ratings.T)


def check_n_neighbors(n_neighbors):
    """None keeps every rater and 0 none; a negative N is rejected, where a
    slice would silently drop the least similar neighbours."""
    if n_neighbors is not None and n_neighbors < 0:
        raise InvalidConfig(f"n_neighbors must be None or non-negative, got {n_neighbors!r}")


def _top_neighbors(sims, entries, skip, n_neighbors):
    """``(-|sim|, index, sim, rating)`` of the ``(index, rating)`` entries
    other than ``skip``, ordered by |sim| descending, index ascending;
    truncated to N. ``sims`` holds one similarity per entry."""
    ranked = sorted([(-abs(s), a, s, r) for (a, r), s in zip(entries, sims) if a != skip])
    return ranked[:n_neighbors]


def _abs_sum(neighbors):
    """sum |sim| over the neighbours, added left to right: builtin ``sum``
    compensates float sums since Python 3.12, which would change the bits."""
    denom = 0.0
    for _, _, s, _ in neighbors:
        denom += abs(s)
    return denom


def predict_user_item(user_id, column, matrix: RatingMatrix, user_sims: np.ndarray,
                      n_neighbors: int | None = 20, center: str = "user",
                      clamp: bool = True) -> float:
    """Mean-centered user-neighborhood prediction.

    x_hat = mean(k) + sum_a sim(k,a) * (x_{a,m} - center_a) / sum_a |sim(k,a)|
    over the N most similar users who rated the column. ``center`` selects
    the deviation baseline: "user" subtracts each neighbor's own mean,
    "item" subtracts the column mean. The sums run in neighbor order, one
    term at a time.
    """
    if center not in EQ1_CENTERS:
        raise ValueError(f"center must be one of {EQ1_CENTERS}")
    check_n_neighbors(n_neighbors)
    k = matrix.user_index.get(user_id)
    if k is None:
        raise UnknownUser(user_id)
    m = matrix.column_index.get(column)
    if m is None:
        raise UnknownColumn(str(column))
    if not matrix.user_entries[k]:
        return matrix.global_mean()
    base = matrix.user_mean(k)
    neighbors = _top_neighbors(user_sims[k][matrix.column_users[m]].tolist(),
                               matrix.column_entries[m], k, n_neighbors)
    denom = _abs_sum(neighbors)
    if denom == 0.0:
        pred = base
    else:
        num = 0.0
        if center == "user":
            for _, a, s, r in neighbors:
                num += s * (r - matrix.user_means[a])
        else:
            c = matrix.column_mean(m)
            for _, _, s, r in neighbors:
                num += s * (r - c)
        pred = base + num / denom
    return float(min(5.0, max(1.0, pred))) if clamp else float(pred)


def predict_item_item(user_id, column, matrix: RatingMatrix, column_sims: np.ndarray,
                      n_neighbors: int | None = 20, clamp: bool = True) -> float:
    """Item-neighborhood prediction: similarity-weighted mean of the user's
    own ratings over the N most similar columns, summed in neighbor order."""
    check_n_neighbors(n_neighbors)
    k = matrix.user_index.get(user_id)
    if k is None:
        raise UnknownUser(user_id)
    m = matrix.column_index.get(column)
    if m is None:
        raise UnknownColumn(str(column))
    neighbors = _top_neighbors(column_sims[m][matrix.user_columns[k]].tolist(),
                               matrix.user_entries[k], m, n_neighbors)
    denom = _abs_sum(neighbors)
    if denom == 0.0:
        pred = matrix.user_mean(k)
    else:
        num = 0.0
        for _, _, s, r in neighbors:
            num += s * r
        pred = num / denom
    return float(min(5.0, max(1.0, pred))) if clamp else float(pred)


def positive_counts(item_id, scored_fragments) -> dict[str, int]:
    """Per-restaurant count of positively scored fragments for one item."""
    counts: dict[str, int] = {}
    for f in scored_fragments:
        if f.item_id != item_id:
            continue
        counts.setdefault(f.restaurant_id, 0)
        if f.score > 0.0:
            counts[f.restaurant_id] += 1
    return counts


def baseline_predict(column, scored_fragments, fallback: float = 3.0) -> float:
    """Rating-scale view of the baseline predictor.

    The baseline judges whole restaurants by their positive-review volume
    and knows nothing about individual items, so its rating prediction for
    any column is the restaurant's overall positive-fragment share mapped
    linearly onto [1, 5] (no fragments -> fallback).
    """
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


class Recommender:
    """Bundles the trained state needed to answer top-k restaurant queries."""

    def __init__(self, matrix: RatingMatrix, scored_fragments,
                 partition: dict[int, int] | None = None,
                 fm_model=None, fm_features=None,
                 n_neighbors: int | None = 20, eq1_center: str = "user"):
        check_n_neighbors(n_neighbors)
        self.matrix = matrix
        self.scored_fragments = list(scored_fragments)
        self.user_sims = user_similarity(matrix)
        self.column_sims = column_similarity(matrix)
        self.partition = partition or {}
        self.fm_model = fm_model
        self.fm_features = fm_features
        self.n_neighbors = n_neighbors
        self.eq1_center = eq1_center
        self._positive = {
            (f.restaurant_id, f.item_id) for f in self.scored_fragments if f.score > 0.0
        }
        self._item_fragments = defaultdict(list)
        self._restaurant_fragments = defaultdict(list)
        for f in self.scored_fragments:
            self._item_fragments[f.item_id].append(f)
            self._restaurant_fragments[f.restaurant_id].append(f)
        # side-score table: community -> size, (community, restaurant) ->
        # members with a positive fragment at the restaurant
        self._community_size = Counter(self.partition.values())
        self._community_positive = Counter(
            (self.partition[i], rid) for rid, i in self._positive if i in self.partition
        )

    def predict(self, user_id, column, method: str) -> float:
        if method == "user":
            return predict_user_item(user_id, column, self.matrix, self.user_sims,
                                     self.n_neighbors, self.eq1_center)
        if method == "item":
            return predict_item_item(user_id, column, self.matrix, self.column_sims,
                                     self.n_neighbors)
        if method == "fm":
            if self.fm_model is None or self.fm_features is None:
                raise ValueError("no factorization machine attached")
            x = self.fm_features.encode(user_id, column)
            return float(min(5.0, max(1.0, fm.fm_predict(x, self.fm_model))))
        if method == "baseline":
            return baseline_predict(column, self._restaurant_fragments.get(column[0], ()),
                                    fallback=self.matrix.global_mean())
        raise ValueError(f"unknown method {method!r}")

    def side_score(self, item_id, restaurant_id) -> float:
        """Fraction of the item's community co-members with a positive
        fragment at the restaurant; 0 when the community is a singleton."""
        community = self.partition.get(item_id)
        if community is None:
            return 0.0
        members = self._community_size[community] - 1
        if not members:
            return 0.0
        hits = (self._community_positive[(community, restaurant_id)]
                - ((restaurant_id, item_id) in self._positive))
        return hits / members

    def recommend_top_k(self, user_id, item_id, method: str = "user", k: int = 10,
                        side_weight: float = 0.2) -> list[tuple[str, float]]:
        """Rank restaurants serving the item by predicted rating plus the
        weighted side-dish affinity; ties break by restaurant id."""
        cols = self.matrix.columns_for_item(item_id)
        if not cols:
            raise UnknownItem(str(item_id))
        if method == "baseline":
            counts = positive_counts(item_id, self._item_fragments.get(item_id, ()))
            scored = [
                (rid, count + side_weight * self.side_score(item_id, rid))
                for rid, count in counts.items()
            ]
        else:
            scored = []
            for j in cols:
                restaurant_id, _ = self.matrix.columns[j]
                value = self.predict(user_id, self.matrix.columns[j], method)
                scored.append(
                    (restaurant_id, value + side_weight * self.side_score(item_id, restaurant_id))
                )
        scored.sort(key=lambda rs: (-rs[1], rs[0]))
        return scored[:k]
