import math

import numpy as np
import pytest

from dishrec.corpus import NEGATIVE, POSITIVE, Vocabulary, build_vocabulary
from dishrec import sentiment
from dishrec.errors import DivergenceDetected, SingleClassCorpus
from dishrec.sentiment import (
    bow_matrix,
    bow_vectorize,
    _descend,
    classify_fragment,
    dt_train,
    gini,
    lr_loss_and_grad,
    lr_predict,
    lr_train,
    nb_predict,
    nb_train,
)

VOCAB3 = Vocabulary({"a": 0, "b": 1, "c": 2}, 1)


class TestBow:
    def test_empty_tokens(self):
        assert bow_vectorize([], VOCAB3).tolist() == [0.0, 0.0, 0.0]

    def test_presence_not_count(self):
        assert bow_vectorize(["a", "a", "b"], VOCAB3).tolist() == [1.0, 1.0, 0.0]

    def test_all_oov(self):
        assert bow_vectorize(["x", "y"], VOCAB3).tolist() == [0.0, 0.0, 0.0]


class TestNaiveBayes:
    def test_hand_derived_posterior(self):
        # P(good|pos) = (1+1)/(1+2) = 2/3, P(good|neg) = (0+1)/(1+2) = 1/3
        # p_pos = (0.5 * 2/3) / (0.5 * 2/3 + 0.5 * 1/3) = 2/3
        model = nb_train([["good"], ["bad"]], [POSITIVE, NEGATIVE], alpha=1.0)
        p_pos, p_neg = nb_predict(["good"], model)
        assert abs(p_pos - 2.0 / 3.0) < 1e-12
        assert abs(p_pos + p_neg - 1.0) < 1e-12

    def test_empty_fragment_returns_priors(self):
        model = nb_train(
            [["good"], ["nice"], ["bad"]], [POSITIVE, POSITIVE, NEGATIVE], alpha=1.0
        )
        p_pos, _ = nb_predict([], model)
        assert abs(p_pos - 2.0 / 3.0) < 1e-12

    def test_oov_symmetric_corpus(self):
        model = nb_train([["good"], ["bad"]], [POSITIVE, NEGATIVE], alpha=1.0)
        p_pos, p_neg = nb_predict(["unseen"], model)
        assert abs(p_pos - 0.5) < 1e-12 and abs(p_neg - 0.5) < 1e-12

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassCorpus):
            nb_train([["good"], ["nice"]], [POSITIVE, POSITIVE])

    def test_model_invariants(self):
        model = nb_train(
            [["good", "tasty"], ["bad", "awful"], ["fine"]],
            [POSITIVE, NEGATIVE, POSITIVE],
        )
        assert abs(sum(math.exp(v) for v in model.log_prior.values()) - 1.0) < 1e-12
        for c in (POSITIVE, NEGATIVE):
            assert abs(np.exp(model.log_likelihood[c]).sum() - 1.0) < 1e-9

    def test_posteriors_sum_to_one_property(self):
        rng = np.random.default_rng(0)
        words = [f"w{i}" for i in range(12)]
        docs = [[words[i] for i in rng.integers(0, 12, size=rng.integers(1, 6))]
                for _ in range(30)]
        labels = [POSITIVE if rng.random() < 0.5 else NEGATIVE for _ in range(30)]
        labels[0], labels[1] = POSITIVE, NEGATIVE
        model = nb_train(docs, labels)
        for _ in range(50):
            frag = [words[i] for i in rng.integers(0, 12, size=rng.integers(0, 7))]
            p_pos, p_neg = nb_predict(frag, model)
            assert abs(p_pos + p_neg - 1.0) < 1e-12

    def test_order_invariance(self):
        model = nb_train([["good", "tasty"], ["bad"]], [POSITIVE, NEGATIVE])
        assert nb_predict(["good", "tasty", "bad"], model) == pytest.approx(
            nb_predict(["bad", "tasty", "good"], model), abs=1e-15
        )


class TestLogisticRegression:
    def test_sigmoid_of_zero(self):
        model = lr_train(np.eye(2), [POSITIVE, NEGATIVE], l2=0.0, lr=0.0, epochs=1)
        assert lr_predict(np.zeros(2), model) == 0.5

    def test_monotone_in_margin(self):
        model = lr_train(np.eye(2), [POSITIVE, NEGATIVE], epochs=50)
        xs = [np.array([m, 0.0]) for m in (0.0, 0.5, 1.0, 2.0)]
        ps = [lr_predict(x, model) for x in xs]
        assert all(b > a for a, b in zip(ps, ps[1:])) == (model.weights[0] > 0)

    def test_two_point_separable_matches_scalar_descent(self):
        # independent oracle: scalar full-batch descent on the same 2-point set
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        y = [POSITIVE, NEGATIVE]
        lr, epochs = 0.5, 200
        w0 = w1 = b = 0.0
        for _ in range(epochs):
            p0 = 1.0 / (1.0 + math.exp(-(w0 + b)))   # sample 1, label 1
            p1 = 1.0 / (1.0 + math.exp(-(w1 + b)))   # sample 2, label 0
            g_w0 = (p0 - 1.0) / 2.0
            g_w1 = p1 / 2.0
            g_b = ((p0 - 1.0) + p1) / 2.0
            w0 -= lr * g_w0
            w1 -= lr * g_w1
            b -= lr * g_b
        model = lr_train(X, y, l2=0.0, lr=lr, epochs=epochs)
        assert model.weights[0] == pytest.approx(w0, abs=1e-10)
        assert model.weights[1] == pytest.approx(w1, abs=1e-10)
        assert model.bias == pytest.approx(b, abs=1e-10)
        assert lr_predict(X[0], model) > 0.5
        assert lr_predict(X[1], model) < 0.5

    def test_loss_non_increasing(self):
        rng = np.random.default_rng(3)
        X = (rng.random((20, 6)) > 0.5).astype(float)
        y = [POSITIVE if rng.random() < 0.5 else NEGATIVE for _ in range(20)]
        y[0], y[1] = POSITIVE, NEGATIVE
        model = lr_train(X, y, l2=1e-3, lr=0.01, epochs=200)
        diffs = np.diff(model.loss_history)
        assert (diffs <= 1e-12).all()
        assert model.loss_history[-1] <= model.loss_history[0]

    def test_training_stops_at_first_non_finite_epoch(self, monkeypatch):
        losses = []

        def recording(*args):
            result = lr_loss_and_grad(*args)
            losses.append(result[0])
            return result

        monkeypatch.setattr(sentiment, "lr_loss_and_grad", recording)
        X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(DivergenceDetected):
            lr_train(X, [POSITIVE, NEGATIVE, POSITIVE], lr=1e308, epochs=50)
        # epoch 1 starts from zeros; its step overflows the loss of epoch 2
        assert len(losses) == 2
        assert math.isfinite(losses[0]) and not math.isfinite(losses[1])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n, d = 8, 4
            X = (rng.random((n, d)) > 0.5).astype(float)
            y01 = (rng.random(n) > 0.5).astype(float)
            w = rng.normal(size=d)
            b = float(rng.normal())
            lam = 0.01
            _, grad_w, grad_b = lr_loss_and_grad(X, y01, w, b, lam)
            step = 1e-6
            for j in range(d):
                wp, wm = w.copy(), w.copy()
                wp[j] += step
                wm[j] -= step
                fd = (lr_loss_and_grad(X, y01, wp, b, lam)[0]
                      - lr_loss_and_grad(X, y01, wm, b, lam)[0]) / (2 * step)
                assert abs(fd - grad_w[j]) <= 1e-6 * max(1.0, abs(fd))
            fd_b = (lr_loss_and_grad(X, y01, w, b + step, lam)[0]
                    - lr_loss_and_grad(X, y01, w, b - step, lam)[0]) / (2 * step)
            assert abs(fd_b - grad_b) <= 1e-6 * max(1.0, abs(fd_b))


class TestDecisionTree:
    def test_pure_corpus_single_leaf(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        model = dt_train(X, [POSITIVE, POSITIVE])
        assert model.root.feature is None
        assert _descend(np.array([0.0, 0.0]), model).label == POSITIVE

    def test_xor_fits_at_depth_two(self):
        # 4-row truth table: label = x0 XOR x1
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = [NEGATIVE, POSITIVE, POSITIVE, NEGATIVE]
        model = dt_train(X, y, max_depth=2, min_samples_leaf=1)
        preds = [_descend(x, model).label for x in X]
        assert preds == y

    def test_gini_pure_node_is_zero(self):
        assert gini(5, 0) == 0.0
        assert gini(0, 3) == 0.0
        assert gini(2, 2) == 0.5

    def test_splits_never_increase_impurity(self):
        rng = np.random.default_rng(5)
        X = (rng.random((40, 6)) > 0.5).astype(float)
        y = [POSITIVE if rng.random() < 0.5 else NEGATIVE for _ in range(40)]
        y[0], y[1] = POSITIVE, NEGATIVE
        model = dt_train(X, y, max_depth=6, min_samples_leaf=2)

        def check(node):
            if node.feature is None:
                return
            parent = gini(node.n_pos, node.n_neg)
            n = node.n_pos + node.n_neg
            for child in (node.left, node.right):
                assert child.n_pos + child.n_neg >= 1
            weighted = (
                (node.left.n_pos + node.left.n_neg) * gini(node.left.n_pos, node.left.n_neg)
                + (node.right.n_pos + node.right.n_neg) * gini(node.right.n_pos, node.right.n_neg)
            ) / n
            assert weighted <= parent + 1e-12
            check(node.left)
            check(node.right)

        check(model.root)

    def test_depth_limit_respected(self):
        rng = np.random.default_rng(9)
        X = (rng.random((60, 8)) > 0.5).astype(float)
        y = [POSITIVE if rng.random() < 0.5 else NEGATIVE for _ in range(60)]
        y[0], y[1] = POSITIVE, NEGATIVE
        model = dt_train(X, y, max_depth=3, min_samples_leaf=2)

        def depth(node):
            if node.feature is None:
                return 0
            return 1 + max(depth(node.left), depth(node.right))

        assert depth(model.root) <= 3

    def test_leaf_tie_goes_positive(self):
        X = np.array([[1.0], [1.0]])
        model = dt_train(X, [POSITIVE, NEGATIVE], max_depth=2)
        assert _descend(np.array([1.0]), model).label == POSITIVE


class TestClassifyFragment:
    def test_scale_endpoints_and_midpoint(self):
        model = nb_train([["good"], ["bad"]], [POSITIVE, NEGATIVE])
        # p_pos = 2/3 for ["good"] -> score 1/3
        assert classify_fragment(["good"], model) == pytest.approx(1.0 / 3.0, abs=1e-12)
        # symmetric OOV fragment -> p_pos = 0.5 -> score 0
        assert classify_fragment(["zzz"], model) == pytest.approx(0.0, abs=1e-12)

    def test_saturated_probability_maps_to_one(self):
        from dishrec.sentiment import LRModel
        vocab = Vocabulary({"great": 0}, 1)
        saturated = LRModel(np.array([1000.0]), 0.0, 0.0)  # sigmoid -> 1.0 exactly
        assert classify_fragment(["great"], saturated, vocab) == 1.0
        # pure decision-tree leaf: 2 * (pos/total) - 1 = 1
        X = np.array([[1.0], [0.0]])
        tree = dt_train(X, [POSITIVE, NEGATIVE], max_depth=1, min_samples_leaf=1)
        assert classify_fragment(["great"], tree, vocab) == 1.0

    def test_all_models_stay_in_range(self):
        rng = np.random.default_rng(2)
        docs = [["good", "tasty"], ["bad"], ["good"], ["awful", "bad"]]
        labels = [POSITIVE, NEGATIVE, POSITIVE, NEGATIVE]
        vocab = build_vocabulary(docs, 1)
        X = bow_matrix(docs, vocab)
        models = [
            (nb_train(docs, labels), None),
            (lr_train(X, labels, epochs=50), vocab),
            (dt_train(X, labels), vocab),
        ]
        for _ in range(20):
            frag = [["good", "bad", "tasty", "awful", "zz"][i]
                    for i in rng.integers(0, 5, size=rng.integers(0, 4))]
            for model, v in models:
                s = classify_fragment(frag, model, v)
                assert -1.0 <= s <= 1.0

    def test_dt_leaf_proportion_scale(self):
        X = np.array([[1.0], [1.0], [1.0], [0.0]])
        y = [POSITIVE, POSITIVE, NEGATIVE, NEGATIVE]
        vocab = Vocabulary({"a": 0}, 1)
        model = dt_train(X, y, max_depth=1, min_samples_leaf=1)
        # right leaf: 2 pos / 1 neg -> 2*(2/3) - 1 = 1/3
        assert classify_fragment(["a"], model, vocab) == pytest.approx(1.0 / 3.0, abs=1e-12)


@pytest.mark.parametrize("kind", ["nb", "bow-lr", "bow-dt", "lstm"])
def test_train_sentiment_fits_one_vocabulary(monkeypatch, kind):
    from dishrec import pipeline, sentiment
    from dishrec.fragmenter import ItemFragment

    calls = []

    def counting(token_lists, min_count=1):
        calls.append(min_count)
        return build_vocabulary(token_lists, min_count)

    monkeypatch.setattr(pipeline, "build_vocabulary", counting)
    monkeypatch.setattr(sentiment, "build_vocabulary", counting)
    fragments = [ItemFragment("v1", 0, ("good", "food"), 0), ItemFragment("v2", 0, ("bad",), 0)]
    labels = {("v1", 0): POSITIVE, ("v2", 0): NEGATIVE}
    model, vocab = pipeline.train_sentiment(kind, fragments, labels, epochs=1)
    assert len(calls) == 1
    assert set(vocab.tokens) == {"good", "food", "bad"}


@pytest.fixture(scope="module")
def labeled_fragments():
    from dishrec import pipeline
    from dishrec.synth import synth_corpus

    corpus = synth_corpus(1, 30, 8, 10)
    token_map = pipeline.normalize_reviews(corpus.reviews, corpus.lexicons)
    fragments = pipeline.make_fragments(corpus.reviews, token_map, corpus.items)
    return fragments, pipeline.fragment_labels_for(corpus, fragments, "manual")


def _direct_training(kind, fragments, labels, seed, epochs):
    """Each trainer called directly with its own defaults, as train_sentiment must."""
    from dishrec import lstm

    pairs = [(f, labels[(f.review_id, f.item_id)]) for f in fragments
             if (f.review_id, f.item_id) in labels]
    token_lists = [list(f.tokens) for f, _ in pairs]
    y = [lab for _, lab in pairs]
    if kind == "nb":
        model = nb_train(token_lists, y)
        return model, model.vocab
    vocab = build_vocabulary(token_lists)
    if kind == "bow-lr":
        return lr_train(bow_matrix(token_lists, vocab), y), vocab
    if kind == "bow-dt":
        return dt_train(bow_matrix(token_lists, vocab), y), vocab
    encoded = [(vocab.encode(toks), 1.0 if lab == POSITIVE else -1.0)
               for toks, lab in zip(token_lists, y)]
    data = [(indices, label) for indices, label in encoded if indices]
    params = lstm.init_params(len(vocab), seed=seed)
    return lstm.lstm_train(data, params, epochs=epochs, seed=seed)[0], vocab


class TestTrainSentimentEntryPoint:
    @pytest.mark.parametrize("kind", ["nb", "bow-lr", "bow-dt", "lstm"])
    def test_equals_the_trainer_with_its_defaults(self, labeled_fragments, tmp_path, kind):
        from dishrec import pipeline
        from dishrec.modelio import save_model

        fragments, labels = labeled_fragments
        epochs = {"epochs": 2} if kind == "lstm" else {}
        got = pipeline.train_sentiment(kind, fragments, labels, seed=3, **epochs)
        want = _direct_training(kind, fragments, labels, 3, epochs.get("epochs"))
        for name, (model, vocab) in (("got", got), ("want", want)):
            save_model(model, tmp_path / f"{name}.json", vocab=vocab, seed=3)
        assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()

    @pytest.mark.parametrize("kind", ["nb", "bow-dt"])
    def test_unstepped_kinds_ignore_epochs_and_lr(self, labeled_fragments, tmp_path, kind):
        from dishrec import pipeline
        from dishrec.modelio import save_model

        fragments, labels = labeled_fragments
        for name, steps in (("plain", {}), ("stepped", {"epochs": 2, "lr": 9.0})):
            model, vocab = pipeline.train_sentiment(kind, fragments, labels, **steps)
            save_model(model, tmp_path / f"{name}.json", vocab=vocab)
        assert (tmp_path / "plain.json").read_bytes() == (tmp_path / "stepped.json").read_bytes()

    def test_misspelt_setting_raises_type_error(self, labeled_fragments):
        from dishrec import pipeline

        fragments, labels = labeled_fragments
        with pytest.raises(TypeError):
            pipeline.train_sentiment("bow-lr", fragments, labels, epoch=3)
