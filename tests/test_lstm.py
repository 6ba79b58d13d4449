import math
import warnings

import numpy as np
import pytest

import oracles
from dishrec import lstm
from dishrec.corpus import POSITIVE, NEGATIVE
from dishrec.errors import DivergenceDetected, EmptyCorpus, IndexOutOfVocabulary, InvalidConfig
from dishrec.evalx import f_score
from dishrec.lstm import (
    init_params,
    lstm_backward,
    lstm_forward,
    lstm_loss,
    lstm_train,
)
from dishrec.synth import separable_sequences

from oracles import (
    LSTM_REFERENCE_PARAMS,
    lstm_init_reference,
    lstm_per_gate,
    lstm_reference_score,
    lstm_train_reference,
)

PARAM_NAMES = ("E", "W", "U", "b", "w_out", "b_out")


def zero_params(vocab_size=3, d_e=2, d_h=2):
    p = init_params(vocab_size, d_e, d_h, seed=0)
    for name in PARAM_NAMES:
        v = getattr(p, name)
        if isinstance(v, np.ndarray):
            v[...] = 0.0
        else:
            setattr(p, name, 0.0)
    return p


class TestForward:
    def test_zero_network_scores_zero(self):
        score, _ = lstm_forward([0, 1, 2], zero_params())
        assert score == 0.0

    def test_single_token_uses_only_its_embedding(self):
        params = init_params(4, 2, 2, seed=1)
        s1, _ = lstm_forward([2], params)
        # changing another token's embedding cannot affect the score
        params2 = params.copy()
        params2.E[3] += 10.0
        s2, _ = lstm_forward([2], params2)
        assert s1 == s2

    def test_matches_scalar_recurrence_oracle(self):
        for seed in range(5):
            params = init_params(5, 2, 2, seed=seed)
            seq = [0, 3, 1]
            score, _ = lstm_forward(seq, params)
            assert score == pytest.approx(lstm_reference_score(seq, params), abs=1e-12)

    def test_index_out_of_vocabulary(self):
        with pytest.raises(IndexOutOfVocabulary, match="token index 7 at position 0"):
            lstm_forward([7], init_params(3, 2, 2, seed=0))
        with pytest.raises(IndexOutOfVocabulary, match="token index -1 at position 2"):
            lstm_forward([0, 1, -1], init_params(3, 2, 2, seed=0))

    def test_gates_strictly_inside_unit_interval(self):
        params = init_params(4, 3, 3, seed=2)
        _, cache = lstm_forward([0, 1, 2, 3], params)
        sigmoid_gates = cache["gates"][:, :3 * params.d_hidden]  # i, f, o blocks
        assert (sigmoid_gates > 0.0).all() and (sigmoid_gates < 1.0).all()
        assert np.isfinite(cache["C"]).all() and np.isfinite(cache["H"]).all()

    def test_forward_deterministic(self):
        params = init_params(4, 3, 3, seed=3)
        assert lstm_forward([1, 2], params)[0] == lstm_forward([1, 2], params)[0]


class TestBackward:
    def test_output_bias_gradient_closed_form(self):
        params = init_params(4, 2, 3, seed=4)
        score, cache = lstm_backward_setup = lstm_forward([1, 2], params)
        grads = lstm_backward(cache, 1.0)
        expected = 2.0 * (score - 1.0) * (1.0 - score * score)
        assert grads.b_out == pytest.approx(expected, abs=1e-12)

    def test_length_one_sequence_has_zero_recurrent_gradients(self):
        params = init_params(4, 2, 3, seed=5)
        _, cache = lstm_forward([2], params)
        grads = lstm_backward(cache, -1.0)
        assert grads.U.shape == (4 * 3, 3)
        assert np.all(grads.U == 0.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        d_e = int(rng.integers(1, 5))
        d_h = int(rng.integers(1, 5))
        vocab = 5
        length = int(rng.integers(1, 7))
        params = init_params(vocab, d_e, d_h, seed=seed)
        seq = rng.integers(0, vocab, size=length).tolist()
        label = 1.0 if seed % 2 == 0 else -1.0
        _, cache = lstm_forward(seq, params)
        grads = lstm_backward(cache, label)
        step = 1e-5

        def loss_at(p):
            s, _ = lstm_forward(seq, p)
            return lstm_loss(s, label)

        for name in PARAM_NAMES:
            analytic = getattr(grads, name)
            if name == "b_out":
                p_hi, p_lo = params.copy(), params.copy()
                p_hi.b_out += step
                p_lo.b_out -= step
                fd = (loss_at(p_hi) - loss_at(p_lo)) / (2 * step)
                assert abs(fd - analytic) <= 1e-4 * max(1.0, abs(fd))
                continue
            arr = getattr(params, name)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                p_hi, p_lo = params.copy(), params.copy()
                getattr(p_hi, name)[ix] += step
                getattr(p_lo, name)[ix] -= step
                fd = (loss_at(p_hi) - loss_at(p_lo)) / (2 * step)
                if abs(fd) < 1e-10 and abs(analytic[ix]) < 1e-10:
                    continue
                assert abs(fd - analytic[ix]) <= 1e-4 * max(1.0, abs(fd)), (name, ix)


class TestTraining:
    def test_loss_drops_on_tiny_task(self):
        train, _, _ = separable_sequences(3, n_train=40, n_test=5, vocab_size=8, max_len=6)
        params = init_params(8, d_embed=8, d_hidden=8, seed=3)
        trained, losses = lstm_train(train, params, lr=0.05, epochs=30, seed=3)
        assert losses[-1] < 0.1 * losses[0]

    def test_training_is_seed_deterministic(self):
        train, _, _ = separable_sequences(4, n_train=20, n_test=5, vocab_size=6, max_len=5)
        params = init_params(6, 3, 3, seed=4)
        a, la = lstm_train(train, params, lr=0.05, epochs=3, seed=9)
        b, lb = lstm_train(train, params, lr=0.05, epochs=3, seed=9)
        assert la == lb
        assert np.array_equal(a.E, b.E) and a.b_out == b.b_out

    def test_original_params_not_mutated(self):
        train, _, _ = separable_sequences(5, n_train=10, n_test=2, vocab_size=6, max_len=4)
        params = init_params(6, 3, 3, seed=5)
        snapshot = params.E.copy()
        lstm_train(train, params, lr=0.05, epochs=2, seed=5)
        assert np.array_equal(params.E, snapshot)

    def test_forget_bias_initialized_to_one(self):
        params = init_params(5, 4, 4, seed=6)
        assert np.all(params.b[4:8] == 1.0)  # the f block of the stacked bias
        assert np.all(np.abs(params.E) <= 0.1)

    def test_separable_corpus_reaches_f_score(self):
        # smaller sibling of the acceptance run, for quick signal
        train, test, _ = separable_sequences(1, n_train=80, n_test=30, vocab_size=12)
        params = init_params(12, d_embed=8, d_hidden=8, seed=1)
        trained, _ = lstm_train(train, params, lr=0.05, epochs=25, seed=1)
        preds, golds = [], []
        for seq, label in test:
            score, _ = lstm_forward(seq, trained)
            preds.append(POSITIVE if score > 0 else NEGATIVE)
            golds.append(POSITIVE if label > 0 else NEGATIVE)
        assert f_score(preds, golds) >= 0.9


def assert_matches_reference(trained, losses, ref, ref_losses, tol=1e-12):
    """Every parameter and every epoch loss within tol (absolute) of the
    per-gate reference trainer."""
    assert len(losses) == len(ref_losses)
    for a, b in zip(losses, ref_losses):
        assert abs(a - b) <= tol
    split = lstm_per_gate(trained)
    for name in LSTM_REFERENCE_PARAMS:
        got, want = np.asarray(getattr(split, name)), np.asarray(getattr(ref, name))
        assert got.shape == want.shape, name
        assert np.max(np.abs(got - want)) <= tol, name


class TestStackedLayout:
    @pytest.mark.parametrize("d_e,d_h", [(1, 1), (2, 5), (5, 3), (16, 16)])
    def test_init_draws_the_per_gate_values(self, d_e, d_h):
        stacked = init_params(7, d_e, d_h, seed=11)
        assert stacked.W.shape == (4 * d_h, d_e) and stacked.U.shape == (4 * d_h, d_h)
        assert (stacked.d_embed, stacked.d_hidden) == (d_e, d_h)
        split = lstm_per_gate(stacked)
        ref = lstm_init_reference(7, d_e, d_h, seed=11)
        for name in LSTM_REFERENCE_PARAMS:
            assert np.array_equal(getattr(split, name), getattr(ref, name)), name


class TestReferenceEquivalence:
    @pytest.mark.parametrize("seed,d_e,d_h", [
        (0, 1, 1), (1, 2, 5), (2, 5, 3), (3, 3, 2), (4, 4, 1), (5, 16, 16),
    ])
    def test_matches_reference_trainer(self, seed, d_e, d_h):
        train, _, _ = separable_sequences(seed, n_train=30, n_test=2, vocab_size=8,
                                          min_len=1, max_len=6)
        params = init_params(8, d_e, d_h, seed=seed)
        trained, losses = lstm_train(train, params, lr=0.05, epochs=4, seed=seed)
        ref, ref_losses = lstm_train_reference(train, lstm_per_gate(params), lr=0.05,
                                               epochs=4, seed=seed)
        assert_matches_reference(trained, losses, ref, ref_losses)

    def test_length_one_and_repeated_tokens(self):
        corpus = [([2], 1.0), ([3, 3, 3], -1.0), ([0], -1.0), ([4, 4], 1.0),
                  ([1, 4, 1, 4, 1], 1.0), ([5], 1.0), ([5, 5, 5, 5, 5, 5], -1.0)]
        params = init_params(6, 3, 4, seed=8)
        trained, losses = lstm_train(corpus, params, lr=0.1, epochs=6, seed=8)
        ref, ref_losses = lstm_train_reference(corpus, lstm_per_gate(params), lr=0.1,
                                               epochs=6, seed=8)
        assert_matches_reference(trained, losses, ref, ref_losses)

    def test_clipping_matches_reference(self):
        train, _, _ = separable_sequences(6, n_train=25, n_test=2, vocab_size=6, max_len=5)
        params = init_params(6, 4, 3, seed=6)
        trained, losses = lstm_train(train, params, lr=0.2, epochs=3, seed=6,
                                     clip_threshold=0.02)
        ref, ref_losses = lstm_train_reference(train, lstm_per_gate(params), lr=0.2,
                                               epochs=3, seed=6, clip_threshold=0.02)
        assert_matches_reference(trained, losses, ref, ref_losses)
        unclipped, _ = lstm_train(train, params, lr=0.2, epochs=3, seed=6)
        assert np.max(np.abs(unclipped.W - trained.W)) > 1e-3  # the clip did bind

    @pytest.mark.parametrize("seed,d,sample", [(4, 16, 2), (5, 8, 3), (5, 16, 3)])
    def test_divergence_at_the_same_epoch_and_sample(self, monkeypatch, seed, d, sample):
        train, _, _ = separable_sequences(seed, n_train=12, n_test=2, vocab_size=6, max_len=5)
        params = init_params(6, d, d, seed=seed)
        calls = {"stacked": 0, "reference": 0}

        def counting(key, fn):
            def wrapped(*args):
                calls[key] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(lstm, "lstm_forward", counting("stacked", lstm.lstm_forward))
        monkeypatch.setattr(oracles, "lstm_forward_reference",
                            counting("reference", oracles.lstm_forward_reference))
        with pytest.raises(DivergenceDetected):
            lstm_train(train, params, lr=1e308, epochs=3, seed=seed)
        with pytest.raises(DivergenceDetected):
            lstm_train_reference(train, lstm_per_gate(params), lr=1e308, epochs=3, seed=seed)
        assert calls["stacked"] == calls["reference"] == sample  # all in epoch 1


class TestTrainingArguments:
    @pytest.mark.parametrize("threshold", [-1.0, 0.0, math.nan, math.inf, -math.inf])
    def test_bad_clip_threshold_is_invalid_config(self, threshold):
        train, _, _ = separable_sequences(3, n_train=5, n_test=2, vocab_size=8, max_len=6)
        with pytest.raises(InvalidConfig, match="clip_threshold"):
            lstm_train(train, init_params(8, 4, 4, seed=3), epochs=1, clip_threshold=threshold)

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            lstm_train([], init_params(8, 4, 4, seed=3), epochs=1)

    def test_divergence_raises_without_warnings(self):
        train, _, _ = separable_sequences(5, n_train=12, n_test=2, vocab_size=6, max_len=5)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DivergenceDetected, match="loss became nan"):
                lstm_train(train, init_params(6, 8, 8, seed=5), lr=1e308, epochs=3, seed=5)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
