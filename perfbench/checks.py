"""Correctness checks for the benchmark's workloads.

Each check takes the program's outputs plus the inputs needed to recompute
them, and returns a list of problems (empty when the outputs are right).
References are computed here, apart from the program: the user and item
neighbourhood predictions use the scalar formulas in ``tests/oracles.py``
over similarities from its ``cosine_reference``, FM scores use its
``fm_naive``, and splits redo the seeded numpy permutation directly. The
checks never compare against a stored copy of an earlier run's output.
"""

from __future__ import annotations

import importlib.util
import math
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TOL = 1e-9  # absolute; the reference and the program sum in different orders


def load_oracles():
    spec = importlib.util.spec_from_file_location("dishrec_oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _clamp(x):
    return min(5.0, max(1.0, x))


# ---------------------------------------------------------------------------
# serve

def reference_ratings(scored_fragments, blend_weight=0.5):
    """(user, (restaurant, item)) -> mean over its fragments of
    clamp(stars + 2 * score * w, 1, 5)."""
    sums = defaultdict(float)
    counts = defaultdict(int)
    for f in scored_fragments:
        key = (f.user_id, (f.restaurant_id, f.item_id))
        sums[key] += _clamp(f.stars + 2.0 * f.score * blend_weight)
        counts[key] += 1
    return {key: sums[key] / counts[key] for key in sums}


def check_matrix(matrix, scored_fragments, blend_weight=0.5):
    ref = reference_ratings(scored_fragments, blend_weight)
    problems = []
    users = sorted({u for u, _ in ref})
    columns = sorted({c for _, c in ref})
    if list(matrix.user_ids) != users or list(matrix.columns) != columns:
        problems.append("matrix: users or columns differ from the scored fragments")
        return problems
    if int(matrix.mask.sum()) != len(ref):
        problems.append(f"matrix: {int(matrix.mask.sum())} entries, expected {len(ref)}")
    for (user, column), rating in ref.items():
        u, j = matrix.user_index[user], matrix.column_index[column]
        if not matrix.mask[u, j] or abs(float(matrix.ratings[u, j]) - rating) > TOL:
            problems.append(f"matrix: entry {user} {column} is {matrix.ratings[u, j]!r}, "
                            f"expected {rating!r}")
            break
    return problems


def serving_restaurants(scored_fragments):
    """item -> restaurants with at least one fragment about it."""
    serving = defaultdict(set)
    for f in scored_fragments:
        serving[f.item_id].add(f.restaurant_id)
    return serving


def check_list_shape(ranked, k, n_serving):
    """Sorted by score descending, ties by restaurant id ascending, and
    min(k, restaurants serving the item) long."""
    problems = []
    if len(ranked) != min(k, n_serving):
        problems.append(f"list: {len(ranked)} rows, expected min({k}, {n_serving})")
    if list(ranked) != sorted(ranked, key=lambda rs: (-rs[1], rs[0])):
        problems.append(f"list: not sorted by score, then restaurant id: {ranked}")
    return problems


class ServeReference:
    """Recomputes every candidate's score for a (user, item, method) query."""

    def __init__(self, scored_fragments, partition, fm_model, oracles,
                 blend_weight=0.5, n_neighbors=20, side_weight=0.2):
        self.oracles = oracles
        self.ratings = reference_ratings(scored_fragments, blend_weight)
        self.users = sorted({u for u, _ in self.ratings})
        self.columns = sorted({c for _, c in self.ratings})
        self.user_pos = {u: i for i, u in enumerate(self.users)}
        self.column_pos = {c: j for j, c in enumerate(self.columns)}
        by_user = defaultdict(list)
        for (u, _), r in self.ratings.items():
            by_user[u].append(r)
        self.user_means = {u: sum(rs) / len(rs) for u, rs in by_user.items()}
        self.serving = serving_restaurants(scored_fragments)
        self.positive = {(f.restaurant_id, f.item_id) for f in scored_fragments if f.score > 0.0}
        self.positive_count = defaultdict(int)
        for f in scored_fragments:
            if f.score > 0.0:
                self.positive_count[(f.restaurant_id, f.item_id)] += 1
        self.partition = dict(partition)
        self.fm_model = fm_model
        self.n_neighbors = n_neighbors
        self.side_weight = side_weight

    def _row(self, user):
        return [self.ratings.get((user, c), 0.0) for c in self.columns]

    def _col(self, column):
        return [self.ratings.get((u, column), 0.0) for u in self.users]

    def side_score(self, item, restaurant):
        community = self.partition.get(item)
        if community is None:
            return 0.0
        members = [i for i, c in self.partition.items() if c == community and i != item]
        if not members:
            return 0.0
        return sum((restaurant, i) in self.positive for i in members) / len(members)

    def _user_based(self, user, column):
        cosine = self.oracles.cosine_reference
        row = self._row(user)
        sims = {(user, a): cosine(row, self._row(a))
                for (a, c) in self.ratings if c == column and a != user}
        pred = self.oracles.user_neighborhood_reference(
            self.ratings, self.user_means, sims, user, column, self.n_neighbors, "user")
        return _clamp(pred)

    def _item_based(self, user, column):
        cosine = self.oracles.cosine_reference
        col = self._col(column)
        sims = {(column, b): cosine(col, self._col(b))
                for (u, b) in self.ratings if u == user and b != column}
        pred = self.oracles.item_neighborhood_reference(
            self.ratings, sims, user, column, self.n_neighbors)
        return _clamp(self.user_means[user] if pred is None else pred)

    def _fm(self, user, column):
        m = self.fm_model
        x = [(self.user_pos[user], 1.0), (len(self.users) + self.column_pos[column], 1.0)]
        return _clamp(self.oracles.fm_naive(x, m.w0, m.w.tolist(), m.V.tolist()))

    def scores(self, user, item, method):
        """restaurant -> reference score for every restaurant serving the item."""
        out = {}
        for rid in self.serving[item]:
            column = (rid, item)
            if method == "baseline":
                value = float(self.positive_count[column])
            elif method == "user":
                value = self._user_based(user, column)
            elif method == "item":
                value = self._item_based(user, column)
            elif method == "fm":
                value = self._fm(user, column)
            else:
                raise ValueError(f"no reference for method {method!r}")
            out[rid] = value + self.side_weight * self.side_score(item, rid)
        return out


def check_ranking(ranked, reference, k):
    """The program's top-k list against reference scores: same restaurants
    at each rank (up to exact ties), and each score within TOL."""
    problems = []
    expected = sorted(reference.items(), key=lambda rs: (-rs[1], rs[0]))[:k]
    if len(ranked) != len(expected):
        return [f"ranking: {len(ranked)} rows, expected {len(expected)}"]
    for rank, ((rid, score), (ref_rid, ref_score)) in enumerate(zip(ranked, expected)):
        if rid not in reference:
            problems.append(f"ranking: {rid} does not serve the item")
        elif abs(score - reference[rid]) > TOL:
            problems.append(f"ranking: {rid} scored {score!r}, reference {reference[rid]!r}")
        elif rid != ref_rid and abs(reference[rid] - ref_score) > TOL:
            problems.append(f"ranking: rank {rank} is {rid}, expected {ref_rid}")
    return problems


# ---------------------------------------------------------------------------
# evaluate

def seeded_split(items, seed, train_fraction=0.8):
    """The documented split, redone directly: a seeded numpy permutation,
    then floor(fraction * n) for training."""
    order = np.random.default_rng(seed).permutation(len(items))
    n_train = math.floor(train_fraction * len(items))
    return [items[i] for i in order[:n_train]], [items[i] for i in order[n_train:]]


def held_out_pairs(corpus, seed, train_fraction=0.8):
    """(user, column) pairs of the test split's gold mentions whose user and
    column also occur in the training split, from the gold fragment labels."""
    train, test = seeded_split(corpus.reviews, seed, train_fraction)
    mentions = defaultdict(list)
    for review_id, item_id in corpus.fragment_labels:
        mentions[review_id].append(item_id)
    users = {r.user_id for r in train if mentions[r.review_id]}
    columns = {(r.restaurant_id, i) for r in train for i in mentions[r.review_id]}
    pairs = {
        (r.user_id, (r.restaurant_id, i))
        for r in test for i in mentions[r.review_id]
        if r.user_id in users and (r.restaurant_id, i) in columns
    }
    return sorted(pairs), train


def error_metrics(predictions, golds):
    n = len(predictions)
    sq = sum((p - g) * (p - g) for p, g in zip(predictions, golds))
    ab = sum(abs(p - g) for p, g in zip(predictions, golds))
    return math.sqrt(sq / n), ab / n


def check_reports(reports, n_pairs, recomputed):
    """recomputed: method -> (rmse, mae) from the method's own predictions
    on the held-out pairs against the gold ratings."""
    problems = []
    for r in reports:
        total = r.tp + r.fp + r.fn + r.tn
        if total != n_pairs:
            problems.append(f"evaluate {r.method}: confusion sums to {total}, "
                            f"held-out pairs {n_pairs}")
        if not r.rmse >= r.mae - TOL:
            problems.append(f"evaluate {r.method}: rmse {r.rmse} < mae {r.mae}")
        if not 0.0 <= r.precision <= 1.0:
            problems.append(f"evaluate {r.method}: precision {r.precision} outside [0, 1]")
        if r.method in recomputed:
            rmse, mae = recomputed[r.method]
            if abs(r.rmse - rmse) > TOL or abs(r.mae - mae) > TOL:
                problems.append(f"evaluate {r.method}: reported rmse/mae {r.rmse}/{r.mae}, "
                                f"recomputed {rmse}/{mae}")
    return problems


# ---------------------------------------------------------------------------
# train

def check_accuracy(scores, labels, name, floor=0.85):
    """Sign of each score against its planted label (the paper's >85 % claim)."""
    agree = sum((s > 0.0) == (lab == "positive") for s, lab in zip(scores, labels))
    share = agree / len(labels) if labels else 0.0
    if share < floor:
        return [f"{name}: sign agrees with {share:.3f} of planted labels, need {floor}"]
    return []


def check_printed_f_score(stdout, test_scores, test_labels, n_train, name):
    """The f_score, train and test counts that train-sentiment printed,
    against F1 recomputed from the reloaded model on the seeded test split."""
    fields = dict(part.split("=", 1) for part in stdout.split() if "=" in part)
    tp = fp = fn = 0
    for s, lab in zip(test_scores, test_labels):
        pred, gold = s > 0.0, lab == "positive"
        tp += pred and gold
        fp += pred and not gold
        fn += gold and not pred
    denom = 2 * tp + fp + fn
    f1 = 1.0 if denom == 0 else 2 * tp / denom
    expected = {"train": str(n_train), "test": str(len(test_labels)), "f_score": f"{f1:.4f}"}
    got = {k: fields.get(k) for k in expected}
    if got != expected:
        return [f"{name}: printed {got}, recomputed {expected}"]
    return []


def check_topics(text, n_topics=10, per_topic=10):
    """n_topics x per_topic rows; probabilities in (0, 1], non-increasing
    within each topic."""
    rows = [line.split("\t") for line in text.splitlines() if line and not line.startswith("#")]
    problems = []
    if len(rows) != n_topics * per_topic:
        problems.append(f"topics: {len(rows)} rows, expected {n_topics * per_topic}")
    by_topic = defaultdict(list)
    for row in rows:
        if len(row) != 3:
            return problems + [f"topics: malformed row {row}"]
        by_topic[row[0]].append(float(row[2]))
    if sorted(by_topic) != sorted(str(k) for k in range(n_topics)):
        problems.append(f"topics: topic ids {sorted(by_topic)}")
    for topic, probs in by_topic.items():
        if len(probs) != per_topic:
            problems.append(f"topics: topic {topic} has {len(probs)} rows")
        if not all(0.0 < p <= 1.0 for p in probs):
            problems.append(f"topics: topic {topic} has a probability outside (0, 1]")
        if any(a < b for a, b in zip(probs, probs[1:])):
            problems.append(f"topics: topic {topic} probabilities increase")
    return problems


def check_rerun(first: bytes, again: bytes, name):
    if first != again:
        return [f"{name}: a rerun with the same seed is not byte-identical"]
    return []
