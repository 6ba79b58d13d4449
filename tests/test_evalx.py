import math

import numpy as np
import pytest

from dishrec.corpus import NEGATIVE, POSITIVE, LexiconSet, ReviewRecord
from dishrec.errors import InvalidConfig, UndefinedMetric
from dishrec.evalx import (
    _held_out_truth,
    f_score,
    fleiss_kappa,
    format_report_table,
    mae,
    precision_at_k,
    rmse,
    run_benchmark,
    train_test_split,
)
from dishrec.fragmenter import ItemFragment
from dishrec.pipeline import fragment_labels_for
from dishrec.synth import CorpusData, separable_sequences, synth_corpus


def review(i, stars, label="unlabeled"):
    return ReviewRecord(f"rev{i}", "r0", "u0", stars, "some text", label)


def one_item_corpus(reviews):
    """The reviews as a corpus, and one fragment about item 0 per review."""
    fragments = [ItemFragment(r.review_id, 0, ("food",), 0) for r in reviews]
    return CorpusData(reviews, [], [], LexiconSet()), fragments


class TestSplit:
    def test_3131_item_split_rounding_modes(self):
        items = list(range(3131))
        train, test = train_test_split(items, 0.8, seed=1, split_round="floor")
        assert (len(train), len(test)) == (2504, 627)
        train, test = train_test_split(items, 0.8, seed=1, split_round="round")
        assert (len(train), len(test)) == (2505, 626)

    def test_ten_items(self):
        train, test = train_test_split(list(range(10)), 0.8, seed=0)
        assert (len(train), len(test)) == (8, 2)

    def test_same_seed_identical(self):
        items = list(range(50))
        assert train_test_split(items, 0.8, 9) == train_test_split(items, 0.8, 9)

    def test_disjoint_exhaustive(self):
        items = list(range(37))
        train, test = train_test_split(items, 0.8, seed=5)
        assert sorted(train + test) == items


class TestThresholdLabels:
    """Label derivation lives in pipeline.fragment_labels_for."""

    @staticmethod
    def labels(reviews, mode, threshold=2.5):
        return fragment_labels_for(*one_item_corpus(reviews), mode, threshold)

    def test_boundary_counts_positive(self):
        assert self.labels([review(1, 2.0)], "threshold", 2.0) == {("rev1", 0): POSITIVE}

    def test_below_threshold_negative(self):
        assert self.labels([review(1, 1.5)], "threshold", 2.0) == {("rev1", 0): NEGATIVE}

    def test_thresholds_disagree_between_bounds(self):
        r = [review(1, 2.5)]
        assert self.labels(r, "threshold", 2.0)[("rev1", 0)] == POSITIVE
        assert self.labels(r, "threshold", 3.0)[("rev1", 0)] == NEGATIVE

    def test_invalid_threshold(self):
        with pytest.raises(InvalidConfig):
            self.labels([review(1, 3.0)], "threshold", 3.5)

    def test_manual_labels_skip_unlabeled(self):
        labels = self.labels(
            [review(1, 4.0, POSITIVE), review(2, 2.0), review(3, 1.0, NEGATIVE)], "manual"
        )
        assert labels == {("rev1", 0): POSITIVE, ("rev3", 0): NEGATIVE}


class TestMetrics:
    def test_perfect_f_score(self):
        assert f_score([POSITIVE, NEGATIVE], [POSITIVE, NEGATIVE]) == 1.0

    def test_all_negative_predictions(self):
        assert f_score([NEGATIVE, NEGATIVE], [POSITIVE, NEGATIVE]) == 0.0

    def test_f_score_hand_value(self):
        # TP=8, FP=2, FN=2 -> 16/20
        preds = [POSITIVE] * 10 + [NEGATIVE] * 2
        golds = [POSITIVE] * 8 + [NEGATIVE] * 2 + [POSITIVE] * 2
        assert f_score(preds, golds) == pytest.approx(0.8, abs=1e-12)

    def test_rmse_mae_zero_on_equal(self):
        assert rmse([1, 2, 3], [1, 2, 3]) == 0.0
        assert mae([1, 2, 3], [1, 2, 3]) == 0.0

    def test_symmetric_unit_errors(self):
        assert rmse([2, 0], [1, 1]) == 1.0
        assert mae([2, 0], [1, 1]) == 1.0

    def test_rmse_mae_hand_values(self):
        preds, golds = [4, 1, 1], [1, 1, 1]  # errors (3, 0, 0)
        assert rmse(preds, golds) == pytest.approx(math.sqrt(3.0), abs=1e-12)
        assert mae(preds, golds) == pytest.approx(1.0, abs=1e-12)

    def test_rmse_at_least_mae_property(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            n = int(rng.integers(1, 12))
            preds = rng.normal(size=n) * 3
            golds = rng.normal(size=n) * 3
            r, m = rmse(preds, golds), mae(preds, golds)
            assert r >= m - 1e-12
        assert rmse([3, 3], [1, 1]) == pytest.approx(mae([3, 3], [1, 1]), abs=1e-12)


class TestPrecisionAtK:
    def test_all_relevant(self):
        rec = {"q": ["a", "b"]}
        held = {"q": {"a": 5.0, "b": 5.0}}
        assert precision_at_k(rec, held) == 1.0

    def test_half_relevant(self):
        rec = {"q": ["a", "b"]}
        held = {"q": {"a": 5.0, "b": 2.0}}
        assert precision_at_k(rec, held) == 0.5

    def test_no_overlap_anywhere_raises(self):
        with pytest.raises(UndefinedMetric):
            precision_at_k({"q": ["a"]}, {"q": {"b": 5.0}})

    def test_recommendations_without_ratings_excluded(self):
        rec = {"q": ["a", "b", "c"]}
        held = {"q": {"a": 5.0}}  # b, c never rated: do not count against
        assert precision_at_k(rec, held) == 1.0


class TestFleissKappa:
    def test_unanimous(self):
        rows = [["P", "P", "P"], ["N", "N", "N"]]
        assert fleiss_kappa(rows) == 1.0

    def test_hand_worked_fixture(self):
        # items x annotators: counts (2,1), (3,0), (0,3), (1,2)
        # P_bar = 2/3, P_e = 1/2 -> kappa = 1/3
        rows = [["P", "P", "N"], ["P", "P", "P"], ["N", "N", "N"], ["P", "N", "N"]]
        assert fleiss_kappa(rows) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_chance_level_is_zero(self):
        # 2 annotators, balanced labels, half the items agree:
        # P_bar = 0.5 and P_e = 0.5 -> kappa = 0
        rows = [["P", "P"], ["N", "N"], ["P", "N"], ["N", "P"]]
        assert fleiss_kappa(rows) == pytest.approx(0.0, abs=1e-12)


class TestSynthCorpus:
    def test_deterministic(self):
        a = synth_corpus(5, 8, 4, 5)
        b = synth_corpus(5, 8, 4, 5)
        assert a.reviews == b.reviews
        assert a.gold_ratings == b.gold_ratings

    def test_invalid_sizes(self):
        with pytest.raises(InvalidConfig):
            synth_corpus(0, 0, 3, 3)
        with pytest.raises(InvalidConfig):
            synth_corpus(0, 3, 3, -1)

    def test_gold_labels_cover_fragments(self):
        corpus = synth_corpus(3, 6, 4, 5)
        from dishrec.pipeline import make_fragments, normalize_reviews
        token_map = normalize_reviews(corpus.reviews, corpus.lexicons)
        frags = make_fragments(corpus.reviews, token_map, corpus.items)
        assert frags, "generator must produce fragments"
        for f in frags:
            assert (f.review_id, f.item_id) in corpus.fragment_labels

    def test_separable_sequences_contain_markers(self):
        train, test, tokens = separable_sequences(1, 20, 5, vocab_size=10)
        assert tokens[0] == "good" and tokens[1] == "bad"
        for seq, label in train + test:
            assert (0 in seq) == (label > 0)
            assert (1 in seq) == (label < 0)
            assert len(seq) <= 10


class TestHeldOutTruth:
    def test_repeated_mentions_averaged(self):
        # two visits of u0 to r0, both about item 0, no planted gold rating
        reviews = [review(1, 4.0, POSITIVE), review(2, 2.0, NEGATIVE)]
        corpus, fragments = one_item_corpus(reviews)
        truth = _held_out_truth(corpus, reviews, fragments, blend_weight=0.5)
        # ratings 4 + 2*0.5 = 5 and 2 - 2*0.5 = 1, averaged as RatingMatrix does
        assert truth == {("u0", ("r0", 0)): 3.0}


class TestBenchmark:
    def test_single_method_single_report(self):
        corpus = synth_corpus(2, 10, 4, 4)
        reports = run_benchmark(corpus, methods=["baseline"], seed=2)
        assert len(reports) == 1
        assert reports[0].method == "baseline"
        assert reports[0].tp + reports[0].fp + reports[0].fn + reports[0].tn > 0

    def test_confusion_counts_sum_to_pair_set_size(self):
        corpus = synth_corpus(4, 12, 5, 5)
        reports = run_benchmark(corpus, seed=4)
        sums = {r.tp + r.fp + r.fn + r.tn for r in reports}
        assert len(sums) == 1  # same held-out pair set for every method
        assert sums.pop() > 0

    def test_perfect_information_precision(self):
        corpus = synth_corpus(7, 50, 6, 5, good_per_item=4, noise=0.0,
                              mention_bias=1.0, bad_restaurants=1,
                              max_items_per_review=3)
        reports = run_benchmark(corpus, seed=7, top_k=2)
        for r in reports:
            assert r.precision == pytest.approx(1.0, abs=1e-12), r.method

    def test_fm_and_user_beat_baseline(self):
        corpus = synth_corpus(42, 50, 10, 12, noise=0.15)
        reports = {r.method: r for r in run_benchmark(corpus, seed=42)}
        assert reports["fm"].rmse < reports["baseline"].rmse
        assert reports["user"].rmse < reports["baseline"].rmse

    def test_reproducible(self):
        corpus = synth_corpus(6, 12, 5, 5)
        a = run_benchmark(corpus, seed=6)
        b = run_benchmark(corpus, seed=6)
        assert [r.to_dict() for r in a] == [r.to_dict() for r in b]

    def test_table_formatting(self):
        corpus = synth_corpus(2, 10, 4, 4)
        reports = run_benchmark(corpus, methods=["baseline", "user"], seed=2)
        table = format_report_table(reports)
        assert "baseline" in table and "user" in table
        assert len(table.splitlines()) == 4
