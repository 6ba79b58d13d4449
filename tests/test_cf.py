import json

import numpy as np
import pytest

from dishrec import cf
from dishrec.cf import (
    EQ1_CENTERS,
    RatingMatrix,
    Recommender,
    ScoredFragment,
    baseline_predict,
    build_rating_matrix,
    column_similarity,
    cosine_sim,
    derive_item_rating,
    predict_item_item,
    predict_user_item,
    user_similarity,
)
from dishrec.errors import InvalidConfig, UnknownColumn, UnknownItem, UnknownUser
from dishrec.evalx import run_benchmark
from dishrec.pipeline import build_recommender
from dishrec.synth import synth_corpus

from oracles import (
    columns_for_item_reference,
    cosine_reference,
    item_neighborhood_reference,
    predict_item_item_reference,
    predict_user_item_reference,
    recommend_top_k_reference,
    run_benchmark_reference,
    side_score_reference,
    user_neighborhood_reference,
)


def frag(user, rest, item, score, stars, review=None):
    return ScoredFragment(review or f"{user}-{rest}-{item}", user, rest, item, score, stars)


def dense_matrix(values):
    """Matrix from a dense 2d array; user u{i}, column (r{j}, item j)."""
    values = np.asarray(values, dtype=float)
    entries = []
    for u in range(values.shape[0]):
        for j in range(values.shape[1]):
            entries.append((f"u{u}", f"r{j}", j, float(values[u, j])))
    return RatingMatrix.from_entries(entries)


class TestDeriveRating:
    def test_neutral_sentiment_is_identity(self):
        assert derive_item_rating(3.0, 0.0) == 3.0

    def test_clamped_top(self):
        assert derive_item_rating(5.0, 1.0, 0.5) == 5.0

    def test_direct_formula(self):
        assert derive_item_rating(3.0, -1.0, 0.5) == 2.0

    def test_weight_zero_passes_stars_through(self):
        assert derive_item_rating(2.5, 1.0, 0.0) == 2.5


class TestCosine:
    def test_self_similarity(self):
        assert cosine_sim([1.0, 2.0], [1.0, 2.0]) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_supports(self):
        assert cosine_sim([1.0, 0.0], [0.0, 2.0]) == 0.0

    def test_hand_value(self):
        assert cosine_sim([1.0, 2.0, 0.0], [2.0, 1.0, 0.0]) == pytest.approx(0.8, abs=1e-15)

    def test_zero_norm(self):
        assert cosine_sim([0.0, 0.0], [1.0, 1.0]) == 0.0

    def test_matches_reference_on_random_vectors(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            a = rng.normal(size=5)
            b = rng.normal(size=5)
            assert cosine_sim(a, b) == pytest.approx(cosine_reference(a, b), abs=1e-12)


class TestSimilarityMatrices:
    def test_entry_sums_match_pairwise_cosine(self):
        """The entry-summed matrices are exactly symmetric, leave a user or
        column with no rating at zero, and equal the pairwise oracle."""
        corpus = synth_corpus(1, 20, 6, 8)
        matrix = build_recommender(corpus, seed=1, with_fm=False).matrix
        ratings = np.pad(matrix.ratings, ((0, 1), (0, 1)))  # one empty user and column
        for M in (ratings, ratings.T):
            S = cf._cosine_matrix(M)
            assert (S == S.T).all()
            for a in range(len(M)):
                for b in range(len(M)):
                    assert S[a, b] == pytest.approx(cosine_reference(M[a], M[b]), abs=1e-15)

    def test_symmetry_range_diagonal(self):
        rng = np.random.default_rng(1)
        entries = []
        for u in range(6):
            for j in range(5):
                if rng.random() < 0.6:
                    entries.append((f"u{u}", f"r{j}", j, float(rng.integers(1, 6))))
        matrix = RatingMatrix.from_entries(entries)
        for S in (user_similarity(matrix), column_similarity(matrix)):
            assert np.allclose(S, S.T, atol=1e-12)
            assert (S >= -1.0 - 1e-12).all() and (S <= 1.0 + 1e-12).all()
            for k in range(S.shape[0]):
                row_norm = np.linalg.norm(
                    matrix.ratings[k] if S.shape[0] == matrix.n_users else matrix.ratings[:, k]
                )
                if row_norm > 0:
                    assert S[k, k] == pytest.approx(1.0, abs=1e-12)


def _sim_dicts(matrix):
    S_u = user_similarity(matrix)
    S_c = column_similarity(matrix)
    sims_u = {}
    for a, ua in enumerate(matrix.user_ids):
        for b, ub in enumerate(matrix.user_ids):
            sims_u[(ua, ub)] = S_u[a, b]
    sims_c = {}
    for a, ca in enumerate(matrix.columns):
        for b, cb in enumerate(matrix.columns):
            sims_c[(ca, cb)] = S_c[a, b]
    return S_u, S_c, sims_u, sims_c


class TestPredictUserItem:
    def test_unanimous_ratings(self):
        matrix = dense_matrix([[4, 4, 4]] * 3)
        S_u = user_similarity(matrix)
        pred = predict_user_item("u0", ("r1", 1), matrix, S_u)
        assert pred == pytest.approx(4.0, abs=1e-12)

    def test_no_neighbor_rated_column_falls_back_to_user_mean(self):
        entries = [("u0", "r0", 0, 4.0), ("u0", "r1", 1, 2.0), ("u1", "r0", 0, 5.0)]
        matrix = RatingMatrix.from_entries(entries)
        S_u = user_similarity(matrix)
        pred = predict_user_item("u0", ("r1", 1), matrix, S_u)  # only u0 rated r1
        assert ("r1", 1) in matrix.column_index
        assert pred == pytest.approx(3.0, abs=1e-12)  # mean of u0's ratings

    def test_matches_reference_on_dense_toy(self):
        values = [[5, 3, 4], [4, 2, 5], [1, 5, 2]]
        matrix = dense_matrix(values)
        _, _, sims_u, _ = _sim_dicts(matrix)
        ratings = {
            (f"u{u}", (f"r{j}", j)): float(values[u][j])
            for u in range(3) for j in range(3)
        }
        user_means = {f"u{u}": float(np.mean(values[u])) for u in range(3)}
        S_u = user_similarity(matrix)
        for u in range(3):
            for j in range(3):
                got = predict_user_item(f"u{u}", (f"r{j}", j), matrix, S_u,
                                        n_neighbors=None, clamp=False)
                want = user_neighborhood_reference(ratings, user_means, sims_u, f"u{u}", (f"r{j}", j))
                assert got == pytest.approx(want, abs=1e-12)

    def test_item_centering_mode(self):
        values = [[5, 3, 4], [4, 2, 5], [1, 5, 2]]
        matrix = dense_matrix(values)
        _, _, sims_u, _ = _sim_dicts(matrix)
        ratings = {
            (f"u{u}", (f"r{j}", j)): float(values[u][j])
            for u in range(3) for j in range(3)
        }
        user_means = {f"u{u}": float(np.mean(values[u])) for u in range(3)}
        col_means = {
            (f"r{j}", j): float(np.mean([values[u][j] for u in range(3)])) for j in range(3)
        }
        S_u = user_similarity(matrix)
        got = predict_user_item("u0", ("r2", 2), matrix, S_u, n_neighbors=None,
                                center="item", clamp=False)
        want = user_neighborhood_reference(ratings, user_means, sims_u, "u0", ("r2", 2),
                             center="item", column_means=col_means)
        assert got == pytest.approx(want, abs=1e-12)

    def test_shift_property(self):
        # adding c to every rating shifts unclamped predictions by exactly c
        # (similarities held fixed)
        base = np.array([[4, 2, 3], [3, 1, 4], [1, 4, 2]], dtype=float)
        matrix = dense_matrix(base)
        shifted = dense_matrix(base + 1.0)
        S_u = user_similarity(matrix)
        for u in range(3):
            for j in range(3):
                a = predict_user_item(f"u{u}", (f"r{j}", j), matrix, S_u,
                                      n_neighbors=None, clamp=False)
                b = predict_user_item(f"u{u}", (f"r{j}", j), shifted, S_u,
                                      n_neighbors=None, clamp=False)
                assert b - a == pytest.approx(1.0, abs=1e-12)

    def test_unknown_ids(self):
        matrix = dense_matrix([[3, 3], [4, 4]])
        S_u = user_similarity(matrix)
        with pytest.raises(UnknownUser):
            predict_user_item("nobody", ("r0", 0), matrix, S_u)
        with pytest.raises(UnknownColumn):
            predict_user_item("u0", ("rX", 9), matrix, S_u)

    def test_clamped_to_rating_range(self):
        matrix = dense_matrix([[5, 5, 5], [5, 5, 5], [1, 5, 5]])
        S_u = user_similarity(matrix)
        for u in range(3):
            for j in range(3):
                pred = predict_user_item(f"u{u}", (f"r{j}", j), matrix, S_u)
                assert 1.0 <= pred <= 5.0


class TestPredictItemItem:
    def test_single_neighbor_returns_its_rating(self):
        entries = [
            ("u0", "r0", 0, 4.0),
            ("u1", "r0", 0, 4.0), ("u1", "r1", 1, 4.0),
        ]
        matrix = RatingMatrix.from_entries(entries)
        S_c = column_similarity(matrix)
        # u0 rated only column (r0, 0); sim((r1,1), (r0,0)) > 0
        pred = predict_item_item("u0", ("r1", 1), matrix, S_c)
        assert pred == pytest.approx(4.0, abs=1e-12)

    def test_zero_similarities_fall_back_to_user_mean(self):
        entries = [
            ("u0", "r0", 0, 2.0),
            ("u1", "r1", 1, 5.0),
        ]
        matrix = RatingMatrix.from_entries(entries)
        S_c = column_similarity(matrix)
        pred = predict_item_item("u0", ("r1", 1), matrix, S_c)
        assert pred == pytest.approx(2.0, abs=1e-12)

    def test_matches_reference_on_dense_toy(self):
        values = [[5, 3, 4, 1], [4, 2, 5, 2], [1, 5, 2, 4]]
        matrix = dense_matrix(values)
        _, _, _, sims_c = _sim_dicts(matrix)
        ratings = {
            (f"u{u}", (f"r{j}", j)): float(values[u][j])
            for u in range(3) for j in range(4)
        }
        S_c = column_similarity(matrix)
        for u in range(3):
            for j in range(4):
                got = predict_item_item(f"u{u}", (f"r{j}", j), matrix, S_c,
                                        n_neighbors=None, clamp=False)
                want = item_neighborhood_reference(ratings, sims_c, f"u{u}", (f"r{j}", j))
                assert got == pytest.approx(want, abs=1e-12)


class TestBaseline:
    FRAGS = [
        frag("u0", "rA", 1, 0.8, 4.0, "v1"),
        frag("u1", "rA", 1, 0.5, 4.5, "v2"),
        frag("u2", "rA", 1, -0.2, 2.0, "v3"),
        frag("u0", "rB", 1, 0.7, 4.0, "v4"),
        frag("u3", "rB", 2, 0.9, 5.0, "v5"),
    ]

    @staticmethod
    def ranked(item_id, frags):
        """The baseline ranking: positive-fragment count, ties by id ascending."""
        matrix = build_rating_matrix(frags)
        engine = Recommender(matrix, frags)
        return engine.recommend_top_k("u0", item_id, method="baseline", side_weight=0.0)

    def test_single_restaurant(self):
        assert self.ranked(2, self.FRAGS) == [("rB", 1)]

    def test_count_ordering(self):
        assert self.ranked(1, self.FRAGS) == [("rA", 2), ("rB", 1)]

    def test_tie_broken_by_restaurant_id(self):
        frags = [frag("u0", "rB", 1, 0.5, 4.0, "x1"), frag("u1", "rA", 1, 0.5, 4.0, "x2")]
        assert self.ranked(1, frags) == [("rA", 1), ("rB", 1)]

    def test_predict_uses_restaurant_share(self):
        # rA: 2 of 3 fragments positive -> 1 + 4*(2/3)
        assert baseline_predict(("rA", 1), self.FRAGS) == pytest.approx(1 + 8 / 3, abs=1e-12)
        assert baseline_predict(("rZ", 1), self.FRAGS, fallback=3.3) == 3.3


class TestBuildMatrix:
    def test_duplicates_averaged(self):
        frags = [
            frag("u0", "rA", 1, 1.0, 4.0, "m1"),
            frag("u0", "rA", 1, -1.0, 4.0, "m2"),
        ]
        matrix = build_rating_matrix(frags, blend_weight=0.5)
        # derived: 5.0 and 3.0 -> averaged 4.0
        assert matrix.ratings[0, 0] == pytest.approx(4.0, abs=1e-12)

    def test_entries_validated(self):
        with pytest.raises(ValueError):
            RatingMatrix.from_entries([("u0", "r0", 0, 7.0)])

    def test_unrated_column_and_user_fall_back_to_global_mean(self):
        ratings = np.array([[5.0, 0.0], [4.0, 0.0], [0.0, 0.0]])
        mask = np.array([[True, False], [True, False], [False, False]])
        matrix = RatingMatrix(["u0", "u1", "u2"], [("r0", 1), ("r1", 2)], ratings, mask)
        assert matrix.global_mean() == 4.5
        assert matrix.column_mean(0) == 4.5
        assert matrix.column_mean(1) == matrix.global_mean()
        assert matrix.user_mean(2) == matrix.global_mean()

    def test_entries_match_the_mask(self):
        rng = np.random.default_rng(5)
        ratings = np.round(rng.uniform(1.0, 5.0, size=(6, 7)), 2)
        mask = rng.uniform(size=(6, 7)) < 0.5
        mask[2, :] = False  # a user who rated nothing
        mask[:, 4] = False  # a column nobody rated
        mask[0, 0] = True
        ratings[~mask] = 0.0
        matrix = RatingMatrix([f"u{u}" for u in range(6)], [(f"r{j}", j % 3) for j in range(7)],
                              ratings, mask)
        rows, cols = np.nonzero(mask)
        want = list(zip(rows.tolist(), cols.tolist(), ratings[rows, cols].tolist()))
        assert [(u, j, r) for u, entries in enumerate(matrix.user_entries)
                for j, r in entries] == want
        assert [(u, j, r) for j, entries in enumerate(matrix.column_entries)
                for u, r in entries] == sorted(want, key=lambda e: (e[1], e[0]))
        assert matrix.user_entries[2] == [] and matrix.column_entries[4] == []
        assert len(matrix.user_entries) == 6 and len(matrix.column_entries) == 7
        for indices, entries in ((matrix.user_columns, matrix.user_entries),
                                 (matrix.column_users, matrix.column_entries)):
            for index, entry in zip(indices, entries, strict=True):
                assert index.dtype == np.intp and index.tolist() == [i for i, _ in entry]

    def test_means_equal_the_masked_means(self):
        """Rows of 5, 40 and 300 ratings: numpy sums 8 or more values in
        blocks, so the mean is only the same if the same array is summed."""
        rng = np.random.default_rng(6)
        ratings = rng.uniform(1.0, 5.0, size=(3, 300))
        mask = np.zeros((3, 300), dtype=bool)
        for u, n in enumerate((5, 40, 300)):
            mask[u, rng.choice(300, size=n, replace=False)] = True
        ratings[~mask] = 0.0
        matrix = RatingMatrix(["a", "b", "c"], [(f"r{j}", 1) for j in range(300)], ratings, mask)
        for u in range(3):
            assert matrix.user_mean(u) == float(ratings[u, mask[u]].mean())
        for j in range(300):
            if mask[:, j].any():
                assert matrix.column_mean(j) == float(ratings[mask[:, j], j].mean())


class TestRecommender:
    def _engine(self):
        frags = [
            frag("u0", "rA", 1, 1.0, 5.0, "a"),
            frag("u1", "rA", 1, 1.0, 4.5, "b"),
            frag("u0", "rB", 1, -1.0, 1.5, "c"),
            frag("u1", "rB", 1, -0.5, 2.0, "d"),
            frag("u0", "rA", 2, 1.0, 5.0, "a"),   # co-mention with item 1
            frag("u1", "rB", 3, 0.5, 4.0, "e"),
        ]
        return Recommender(build_rating_matrix(frags), frags,
                           partition={1: 0, 2: 0, 3: 1})

    def test_lambda_zero_matches_pure_rating_ranking(self):
        engine = self._engine()
        ranked = engine.recommend_top_k("u0", 1, method="user", k=5, side_weight=0.0)
        pure = sorted(
            ((rid, engine.predict("u0", (rid, 1), "user"))
             for rid, item in engine.matrix.columns if item == 1),
            key=lambda rs: (-rs[1], rs[0]),
        )
        assert ranked == pure

    def test_single_restaurant_universe(self):
        frags = [frag("u0", "rOnly", 4, 0.5, 4.0, "z")]
        engine = Recommender(build_rating_matrix(frags), frags)
        for lam in (0.0, 0.2, 1.0):
            assert [r for r, _ in engine.recommend_top_k("u0", 4, "user", 3, lam)] == ["rOnly"]

    def test_side_weight_breaks_ties_by_exact_amount(self):
        frags = [
            frag("u0", "rA", 1, 1.0, 4.0, "p1"),
            frag("u0", "rB", 1, 1.0, 4.0, "p2"),
            frag("u1", "rA", 2, 1.0, 4.0, "p3"),  # community co-member positive at rA only
        ]
        engine = Recommender(build_rating_matrix(frags), frags, partition={1: 0, 2: 0})
        ranked = dict(engine.recommend_top_k("u0", 1, method="user", k=2, side_weight=0.2))
        assert ranked["rA"] - ranked["rB"] == pytest.approx(0.2, abs=1e-12)

    def test_unknown_item(self):
        engine = self._engine()
        with pytest.raises(UnknownItem):
            engine.recommend_top_k("u0", 99, method="user", k=3)

    def test_side_score_fraction(self):
        engine = self._engine()
        # item 1's community = {1, 2}; co-member 2 has a positive fragment at rA
        assert engine.side_score(1, "rA") == 1.0
        assert engine.side_score(1, "rB") == 0.0
        assert engine.side_score(3, "rB") == 0.0  # singleton community


class TestNeighborCount:
    """None keeps every neighbour and 0 none; a negative N is rejected. On
    this corpus u007 has twelve neighbour columns for ("r002", 1), and a
    slice by -1 or -3 used to keep the eleven or nine most similar."""

    COLUMN = ("r002", 1)

    @pytest.fixture(scope="class")
    def built(self):
        corpus = synth_corpus(1, 50, 10, 12)
        return corpus, build_recommender(corpus, seed=1, with_fm=False)

    def test_none_zero_and_positive_counts(self, built):
        _, engine = built
        m, sims = engine.matrix, engine.column_sims

        def predict(n):
            return predict_item_item("u007", self.COLUMN, m, sims, n)

        assert predict(None) == predict(12) == pytest.approx(3.8459, abs=5e-5)
        assert predict(11) == pytest.approx(3.8217, abs=5e-5)
        assert predict(9) == pytest.approx(3.7548, abs=5e-5)
        assert predict(0) == m.user_mean(m.user_index["u007"])

    @pytest.mark.parametrize("n", [-1, -3])
    def test_negative_count_rejected(self, built, n):
        corpus, engine = built
        m = engine.matrix
        with pytest.raises(InvalidConfig):
            predict_item_item("u007", self.COLUMN, m, engine.column_sims, n)
        with pytest.raises(InvalidConfig):
            predict_user_item("u007", self.COLUMN, m, engine.user_sims, n)
        with pytest.raises(InvalidConfig):
            Recommender(m, engine.scored_fragments, n_neighbors=n)
        with pytest.raises(InvalidConfig):
            build_recommender(corpus, seed=1, with_fm=False, n_neighbors=n)


# corpus id -> synth_corpus(seed, users, restaurants, items)
SCAN_CORPORA = {"synth-30u": (1, 30, 8, 10), "synth-40u": (4, 40, 12, 12)}


@pytest.fixture(scope="module", params=sorted(SCAN_CORPORA))
def scan_engine(request):
    """A built engine on a synthetic corpus whose matrix has one more user,
    who rated nothing."""
    seed, users, restaurants, items = SCAN_CORPORA[request.param]
    built = build_recommender(synth_corpus(seed, users, restaurants, items), seed=seed,
                              with_fm=False)
    m = built.matrix
    matrix = RatingMatrix(m.user_ids + ["zz-no-ratings"], m.columns,
                          np.vstack([m.ratings, np.zeros(m.n_columns)]),
                          np.vstack([m.mask, np.zeros(m.n_columns, dtype=bool)]))
    return Recommender(matrix, built.scored_fragments, partition=built.partition)


class TestScanEquivalence:
    """The index-backed queries give exactly the floats of the scans they
    replaced (tests/oracles.py), for every user and column."""

    @pytest.mark.parametrize("center", EQ1_CENTERS)
    @pytest.mark.parametrize("n_neighbors", [20, None])
    def test_predict_user_item(self, scan_engine, n_neighbors, center):
        matrix, sims = scan_engine.matrix, scan_engine.user_sims
        for user_id in matrix.user_ids:
            for column in matrix.columns:
                got = predict_user_item(user_id, column, matrix, sims, n_neighbors, center,
                                        clamp=False)
                want = predict_user_item_reference(user_id, column, matrix, sims, n_neighbors,
                                                   center, clamp=False)
                assert got == want, (user_id, column)

    @pytest.mark.parametrize("n_neighbors", [20, None])
    def test_predict_item_item(self, scan_engine, n_neighbors):
        matrix, sims = scan_engine.matrix, scan_engine.column_sims
        for user_id in matrix.user_ids:
            for column in matrix.columns:
                got = predict_item_item(user_id, column, matrix, sims, n_neighbors, clamp=False)
                want = predict_item_item_reference(user_id, column, matrix, sims, n_neighbors,
                                                   clamp=False)
                assert got == want, (user_id, column)

    @pytest.mark.parametrize("n_neighbors", [0, 3, None])
    def test_signed_tied_similarities(self, scan_engine, n_neighbors):
        """Cosine similarities of ratings are never negative; random signed
        similarities on a 0.05 grid exercise the |sim| order and the index
        tie-break."""
        matrix = scan_engine.matrix
        rng = np.random.default_rng(3)
        sims = []
        for n in (matrix.n_users, matrix.n_columns):
            S = np.round(rng.uniform(-1.0, 1.0, size=(n, n)), 1)
            sims.append((S + S.T) / 2.0)
        S_u, S_c = sims
        for user_id in matrix.user_ids:
            for column in matrix.columns:
                for center in EQ1_CENTERS:
                    assert predict_user_item(user_id, column, matrix, S_u, n_neighbors, center,
                                             clamp=False) == predict_user_item_reference(
                        user_id, column, matrix, S_u, n_neighbors, center, clamp=False)
                assert predict_item_item(user_id, column, matrix, S_c, n_neighbors,
                                         clamp=False) == predict_item_item_reference(
                    user_id, column, matrix, S_c, n_neighbors, clamp=False)

    def test_columns_for_item(self, scan_engine):
        matrix = scan_engine.matrix
        items = {item_id for _, item_id in matrix.columns}
        for item_id in sorted(items) + [max(items) + 1]:
            assert matrix.columns_for_item(item_id) == columns_for_item_reference(matrix, item_id)

    def test_side_score(self, scan_engine):
        """Every (item, restaurant), on the built partition and on one with a
        singleton community and an item outside it."""
        items = sorted({item_id for _, item_id in scan_engine.matrix.columns})
        restaurants = sorted({rid for rid, _ in scan_engine.matrix.columns})
        partition = dict(scan_engine.partition)
        partition[items[0]] = max(partition.values()) + 1  # a singleton community
        del partition[items[1]]
        edited = Recommender(scan_engine.matrix, scan_engine.scored_fragments, partition)
        for engine in (scan_engine, edited):
            for item_id in items + [max(items) + 1]:
                for rid in restaurants + ["zz-no-fragments"]:
                    got = engine.side_score(item_id, rid)
                    assert got == side_score_reference(engine, item_id, rid), (item_id, rid)

    @pytest.mark.parametrize("method, n_neighbors, center", [
        ("baseline", 20, "user"),
        ("user", 20, "user"), ("user", None, "user"), ("user", 20, "item"), ("user", None, "item"),
        ("item", 20, "user"), ("item", None, "user"),
    ])
    def test_recommend_top_k(self, scan_engine, method, n_neighbors, center):
        engine = scan_engine
        engine.n_neighbors, engine.eq1_center = n_neighbors, center
        items = sorted({item_id for _, item_id in engine.matrix.columns})
        for user_id in engine.matrix.user_ids:
            for item_id in items:
                got = engine.recommend_top_k(user_id, item_id, method, k=10, side_weight=0.2)
                want = recommend_top_k_reference(engine, user_id, item_id, method, k=10,
                                                 side_weight=0.2)
                assert got == want, (user_id, item_id)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_run_benchmark_matches_scan_reference(seed):
    corpus = synth_corpus(seed, 30, 8, 12)
    methods = ("baseline", "user", "item")
    got = [r.to_dict() for r in run_benchmark(corpus, methods, seed=seed)]
    want = [r.to_dict() for r in run_benchmark_reference(corpus, methods, seed=seed)]
    # compared as JSON text, so NaN metrics compare equal and -0.0 differs from 0.0
    assert json.dumps(got) == json.dumps(want)
