"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from dishrec.cf import (
    cosine_sim,
    column_similarity,
    predict_item_item,
    predict_user_item,
    user_similarity,
)


def dense_matrix(values):
    from dishrec.cf import RatingMatrix

    values = np.asarray(values, dtype=float)
    entries = []
    for u in range(values.shape[0]):
        for j in range(values.shape[1]):
            entries.append((f"u{u}", f"r{j}", j, float(values[u, j])))
    return RatingMatrix.from_entries(entries)


@contextmanager
def criterion(num, desc, budget=None):
    start = time.perf_counter()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        elapsed = time.perf_counter() - start
        status = "FAIL" if failed or (budget is not None and elapsed >= budget) else "PASS"
        print(f"[criterion {num:02d}] {status}  {desc}  ({elapsed:.2f}s)")
    if budget is not None:
        assert elapsed < budget, f"runtime {elapsed:.2f}s exceeds {budget}s budget"


def test_criterion_01_formula_oracle_equivalence():
    from oracles import user_neighborhood_reference, item_neighborhood_reference

    with criterion(1, "neighborhood predictions match the direct-evaluation oracle on dense 5x6", budget=1.0):
        rng = np.random.default_rng(101)
        values = rng.integers(1, 6, size=(5, 6)).astype(float)
        matrix = dense_matrix(values)
        S_u = user_similarity(matrix)
        S_c = column_similarity(matrix)
        sims_u = {
            (ua, ub): S_u[a, b]
            for a, ua in enumerate(matrix.user_ids)
            for b, ub in enumerate(matrix.user_ids)
        }
        sims_c = {
            (ca, cb): S_c[a, b]
            for a, ca in enumerate(matrix.columns)
            for b, cb in enumerate(matrix.columns)
        }
        ratings = {
            (f"u{u}", (f"r{j}", j)): float(values[u, j])
            for u in range(5) for j in range(6)
        }
        user_means = {f"u{u}": float(values[u].mean()) for u in range(5)}
        for u in range(5):
            for j in range(6):
                col = (f"r{j}", j)
                got1 = predict_user_item(f"u{u}", col, matrix, S_u,
                                         n_neighbors=None, clamp=False)
                want1 = user_neighborhood_reference(ratings, user_means, sims_u, f"u{u}", col)
                assert abs(got1 - want1) < 1e-12
                got2 = predict_item_item(f"u{u}", col, matrix, S_c,
                                         n_neighbors=None, clamp=False)
                want2 = item_neighborhood_reference(ratings, sims_c, f"u{u}", col)
                assert abs(got2 - want2) < 1e-12


def test_criterion_02_cosine_similarity():
    with criterion(2, "cosine: identical -> 1, disjoint -> 0, hand case -> 0.8"):
        assert cosine_sim([3.0, 1.0, 2.0], [3.0, 1.0, 2.0]) == pytest.approx(1.0, abs=1e-12)
        assert cosine_sim([1.0, 0.0, 2.0], [0.0, 5.0, 0.0]) == 0.0
        assert cosine_sim([1.0, 2.0, 0.0], [2.0, 1.0, 0.0]) == 0.8


def test_criterion_03_fm_linear_time_vs_naive():
    from dishrec.fm import FMModel, fm_predict
    from oracles import fm_naive

    with criterion(3, "FM linear-time form equals O(n^2) pairwise oracle (100 cases)"):
        rng = np.random.default_rng(303)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            kdim = int(rng.integers(1, 4))
            model = FMModel(float(rng.normal()), rng.normal(size=n),
                            rng.normal(size=(n, kdim)), 0.0, 0.0, kdim)
            k = int(rng.integers(1, min(n, 4) + 1))
            idx = sorted(rng.choice(n, size=k, replace=False).tolist())
            x = [(int(i), float(rng.normal())) for i in idx]
            got = fm_predict(x, model)
            want = fm_naive(x, model.w0, model.w.tolist(), model.V.tolist())
            assert abs(got - want) < 1e-10


def test_criterion_04_fm_recovery_and_low_lr_mode():
    from dishrec.fm import FMModel, fm_predict, fm_train
    from oracles import fm_naive

    with criterion(4, "FM planted recovery (RMSE <= 0.2); lr=0.001/100-epoch mode stable", budget=10.0):
        rng = np.random.default_rng(404)
        n, kdim, sigma = 30, 2, 0.1
        truth_w0 = float(rng.normal())
        truth_w = (rng.normal(size=n) * 0.5).tolist()
        truth_V = (rng.normal(size=(n, kdim)) * 0.5).tolist()
        data = []
        for _ in range(400):
            idx = sorted(rng.choice(n, size=2, replace=False).tolist())
            x = [(int(i), 1.0) for i in idx]
            y = fm_naive(x, truth_w0, truth_w, truth_V) + float(rng.normal()) * sigma
            data.append((x, y))
        train, holdout = data[:320], data[320:]

        model = fm_train(train, lr=0.05, epochs=100, kdim=kdim, seed=404, n_features=n)
        errs = [fm_predict(x, model) - y for x, y in holdout]
        assert float(np.sqrt(np.mean(np.square(errs)))) <= 0.2

        faithful = fm_train(train, lr=0.001, epochs=100, kdim=kdim, seed=404, n_features=n)
        tail = faithful.history["train_mse"][-10:]
        assert len(tail) == 10
        for a, b in zip(tail, tail[1:]):
            assert b <= a + 1e-3


def test_criterion_05_gradient_checks():
    from dishrec.fm import FMModel, fm_predict, fm_predict_gradients
    from dishrec.lstm import init_params, lstm_backward, lstm_forward, lstm_loss
    from dishrec.sentiment import lr_loss_and_grad

    with criterion(5, "LSTM/LR/FM gradients match central finite differences", budget=30.0):
        # LSTM: every parameter tensor, 20 seeds, relative error 1e-4
        for seed in range(20):
            rng = np.random.default_rng(seed)
            d_e, d_h = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            params = init_params(5, d_e, d_h, seed=seed)
            seq = rng.integers(0, 5, size=int(rng.integers(1, 7))).tolist()
            label = 1.0 if seed % 2 == 0 else -1.0
            _, cache = lstm_forward(seq, params)
            grads = lstm_backward(cache, label)
            step = 1e-5

            def loss_at(p):
                s, _ = lstm_forward(seq, p)
                return lstm_loss(s, label)

            for name in ("E", "W", "U", "b", "w_out", "b_out"):  # W, U, b: all four gates
                analytic = getattr(grads, name)
                if name == "b_out":
                    hi, lo = params.copy(), params.copy()
                    hi.b_out += step
                    lo.b_out -= step
                    fd = (loss_at(hi) - loss_at(lo)) / (2 * step)
                    assert abs(fd - analytic) <= 1e-4 * max(1.0, abs(fd))
                    continue
                arr = getattr(params, name)
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    ix = it.multi_index
                    hi, lo = params.copy(), params.copy()
                    getattr(hi, name)[ix] += step
                    getattr(lo, name)[ix] -= step
                    fd = (loss_at(hi) - loss_at(lo)) / (2 * step)
                    if abs(fd) < 1e-10 and abs(analytic[ix]) < 1e-10:
                        continue
                    assert abs(fd - analytic[ix]) <= 1e-4 * max(1.0, abs(fd)), (name, ix)

        # LR: loss gradient, 20 seeds, relative error 1e-6
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            n, d = 6, 3
            X = (rng.random((n, d)) > 0.5).astype(float)
            y01 = (rng.random(n) > 0.5).astype(float)
            w, b, lam = rng.normal(size=d), float(rng.normal()), 0.01
            _, grad_w, grad_b = lr_loss_and_grad(X, y01, w, b, lam)
            step = 1e-6
            for j in range(d):
                hi, lo = w.copy(), w.copy()
                hi[j] += step
                lo[j] -= step
                fd = (lr_loss_and_grad(X, y01, hi, b, lam)[0]
                      - lr_loss_and_grad(X, y01, lo, b, lam)[0]) / (2 * step)
                assert abs(fd - grad_w[j]) <= 1e-6 * max(1.0, abs(fd))
            fd_b = (lr_loss_and_grad(X, y01, w, b + step, lam)[0]
                    - lr_loss_and_grad(X, y01, w, b - step, lam)[0]) / (2 * step)
            assert abs(fd_b - grad_b) <= 1e-6 * max(1.0, abs(fd_b))

        # FM: prediction gradients, 20 seeds, relative error 1e-6
        for seed in range(20):
            rng = np.random.default_rng(2000 + seed)
            n, kdim = int(rng.integers(2, 6)), int(rng.integers(1, 4))
            model = FMModel(float(rng.normal()), rng.normal(size=n) * 0.7,
                            rng.normal(size=(n, kdim)) * 0.7, 0.0, 0.0, kdim)
            k = int(rng.integers(1, n + 1))
            idx = sorted(rng.choice(n, size=k, replace=False).tolist())
            x = [(int(i), float(rng.normal())) for i in idx]
            g_w0, grad_w, grad_V = fm_predict_gradients(x, model)
            step = 1e-6

            def perturbed(attr, ix, delta):
                # a model is read-only once built, so perturb before building
                params = {"w0": model.w0, "w": model.w.copy(), "V": model.V.copy()}
                if attr == "w0":
                    params["w0"] += delta
                else:
                    params[attr][ix] += delta
                return fm_predict(x, FMModel(**params, lambda_w=0.0, lambda_v=0.0, kdim=kdim))

            fd = (perturbed("w0", None, step) - perturbed("w0", None, -step)) / (2 * step)
            assert abs(fd - g_w0) <= 1e-6 * max(1.0, abs(fd))
            for i, g in grad_w:
                fd = (perturbed("w", i, step) - perturbed("w", i, -step)) / (2 * step)
                assert abs(fd - g) <= 1e-6 * max(1.0, abs(fd))
            for i, gv in grad_V:
                for f in range(kdim):
                    fd = (perturbed("V", (i, f), step)
                          - perturbed("V", (i, f), -step)) / (2 * step)
                    assert abs(fd - gv[f]) <= 1e-6 * max(1.0, abs(fd))


def test_criterion_06_lstm_separable_f_score():
    from dishrec.evalx import f_score
    from dishrec.lstm import init_params, lstm_forward, lstm_train
    from dishrec.synth import separable_sequences

    with criterion(6, "LSTM reaches F-score >= 0.90 on the separable corpus", budget=60.0):
        train, test, tokens = separable_sequences(42, n_train=200, n_test=50, vocab_size=20)
        params = init_params(len(tokens), d_embed=16, d_hidden=16, seed=42)
        trained, _ = lstm_train(train, params, lr=0.05, epochs=50, seed=42)
        preds, golds = [], []
        for seq, label in test:
            score, _ = lstm_forward(seq, trained)
            preds.append("positive" if score > 0 else "negative")
            golds.append("positive" if label > 0 else "negative")
        assert f_score(preds, golds) >= 0.90


def test_criterion_07_naive_bayes_closed_form():
    from dishrec.sentiment import nb_predict, nb_train

    with criterion(7, "NB hand posterior 2/3 exact; posteriors sum to 1"):
        model = nb_train([["good"], ["bad"]], ["positive", "negative"], alpha=1.0)
        p_pos, p_neg = nb_predict(["good"], model)
        assert abs(p_pos - 2.0 / 3.0) < 1e-12

        rng = np.random.default_rng(707)
        words = [f"w{i}" for i in range(15)]
        docs = [[words[i] for i in rng.integers(0, 15, size=rng.integers(1, 8))]
                for _ in range(60)]
        labels = ["positive" if rng.random() < 0.5 else "negative" for _ in range(60)]
        labels[0], labels[1] = "positive", "negative"
        trained = nb_train(docs, labels, alpha=0.5)
        for _ in range(200):
            frag = [words[i] for i in rng.integers(0, 15, size=rng.integers(0, 9))]
            p_pos, p_neg = nb_predict(frag, trained)
            assert abs(p_pos + p_neg - 1.0) < 1e-12


def test_criterion_08_louvain_exactness():
    from dishrec.sides import WeightedGraph, louvain, modularity
    from oracles import best_partition_by_modularity

    with criterion(8, "Louvain exact on bridged K4s (brute force) and K3", budget=5.0):
        g = WeightedGraph()
        for block in ((0, 1, 2, 3), (4, 5, 6, 7)):
            for a in range(4):
                for b in range(a + 1, 4):
                    g.add_edge(block[a], block[b], 1)
        g.add_edge(3, 4, 1)
        partition = louvain(g)  # phase-wise Q non-decrease asserted inside
        assert len(set(partition.values())) == 2
        assert len({partition[n] for n in (0, 1, 2, 3)}) == 1
        assert len({partition[n] for n in (4, 5, 6, 7)}) == 1
        best_q, _ = best_partition_by_modularity(g, modularity)  # 4140 partitions
        assert abs(modularity(g, partition) - best_q) < 1e-9

        k3 = WeightedGraph()
        k3.add_edge(1, 2, 1)
        k3.add_edge(2, 3, 1)
        k3.add_edge(1, 3, 1)
        assert set(louvain(k3).values()) == {0}


def test_criterion_09_modularity_hand_values():
    from dishrec.sides import WeightedGraph, modularity

    with criterion(9, "modularity hand values: paired K3s 0.5, one community 0"):
        g = WeightedGraph()
        for block in ((1, 2, 3), (4, 5, 6)):
            for a in range(3):
                for b in range(a + 1, 3):
                    g.add_edge(block[a], block[b], 1)
        split = {1: 0, 2: 0, 3: 0, 4: 1, 5: 1, 6: 1}
        assert abs(modularity(g, split) - 0.5) < 1e-12
        lumped = {n: 0 for n in g.nodes}
        assert abs(modularity(g, lumped) - 0.0) < 1e-12


def test_criterion_10_lda_invariants_and_separation():
    from dishrec.sides import lda_train, top_words

    with criterion(10, "LDA count invariants each sweep; planted topic purity >= 0.9", budget=60.0):
        rng = np.random.default_rng(42)
        vocab_a = [f"a{i}" for i in range(12)]
        vocab_b = [f"b{i}" for i in range(12)]
        docs = []
        for vocab in (vocab_a, vocab_b):
            for _ in range(50):
                docs.append([vocab[i] for i in rng.integers(0, 12, size=20)])

        model = lda_train(docs, n_topics=2, iterations=0, seed=42)
        total_tokens = sum(len(d) for d in docs)
        for _ in range(500):
            model.sweep()
            for d, doc in enumerate(model.docs):
                assert sum(model.doc_topic[d]) == len(doc)
            for k in range(model.n_topics):
                assert sum(model.topic_word[k]) == model.topic_total[k]
            assert sum(model.topic_total) == total_tokens
        for k in range(2):
            assert abs(sum(model.word_probabilities(k)) - 1.0) < 1e-9
            top = top_words(model, k, 10)
            in_a = sum(1 for t in top if t in vocab_a)
            assert max(in_a, 10 - in_a) / 10 >= 0.9


def test_criterion_11_end_to_end_ordering():
    from dishrec.evalx import run_benchmark
    from dishrec.synth import synth_corpus

    with criterion(11, "FM and user-item beat the baseline RMSE end to end", budget=120.0):
        corpus = synth_corpus(42, 50, 10, 12, noise=0.15)
        reports = {r.method: r for r in run_benchmark(corpus, seed=42)}
        assert reports["fm"].rmse < reports["baseline"].rmse
        assert reports["user"].rmse < reports["baseline"].rmse


def test_criterion_12_metric_oracles():
    from dishrec.evalx import f_score, fleiss_kappa, mae, precision_at_k, rmse

    with criterion(12, "metric hand constants exact; rmse >= mae over 1000 vectors"):
        preds = ["positive"] * 10 + ["negative"] * 2
        golds = ["positive"] * 8 + ["negative"] * 2 + ["positive"] * 2
        assert abs(f_score(preds, golds) - 0.8) < 1e-12

        assert abs(rmse([4, 1, 1], [1, 1, 1]) - math.sqrt(3.0)) < 1e-12
        assert abs(mae([4, 1, 1], [1, 1, 1]) - 1.0) < 1e-12

        rec = {"q1": ["a", "b"], "q2": ["c", "d"]}
        held = {"q1": {"a": 5.0, "b": 2.0}, "q2": {"c": 4.0}}
        assert abs(precision_at_k(rec, held, relevance=4.0) - 0.75) < 1e-12

        rows = [["P", "P", "N"], ["P", "P", "P"], ["N", "N", "N"], ["P", "N", "N"]]
        assert abs(fleiss_kappa(rows) - 1.0 / 3.0) < 1e-12

        rng = np.random.default_rng(1212)
        for _ in range(1000):
            n = int(rng.integers(1, 15))
            a = rng.normal(size=n) * 4
            b = rng.normal(size=n) * 4
            assert rmse(a, b) >= mae(a, b) - 1e-12


def test_criterion_13_command_determinism(tmp_path):
    from dishrec.cli import main

    with criterion(13, "every command rerun with same flags+seed is byte-identical", budget=120.0):
        outputs = {}
        for run_id in ("one", "two"):
            base = tmp_path / run_id
            base.mkdir()
            corpus = base / "corpus"
            assert main(["synth", "--seed", "21", "--users", "12", "--restaurants", "5",
                         "--items", "5", "--noise", "0.1", "--out", str(corpus)]) == 0
            norm = base / "normalized.jsonl"
            assert main(["ingest", "--reviews", str(corpus / "reviews.jsonl"),
                         "--restaurants", str(corpus / "restaurants.jsonl"),
                         "--lexicons", str(corpus / "lexicons"),
                         "--out", str(norm), "--seed", "21"]) == 0
            model = base / "nb.json"
            assert main(["train-sentiment", "--model", "nb", "--corpus", str(corpus),
                         "--labels", "manual", "--out", str(model), "--seed", "21"]) == 0
            partition = base / "partition.tsv"
            assert main(["sides", "--corpus", str(corpus), "--method", "louvain",
                         "--out", str(partition), "--seed", "21"]) == 0
            topics = base / "topics.tsv"
            assert main(["sides", "--corpus", str(corpus), "--method", "lda",
                         "--out", str(topics), "--seed", "21",
                         "--topics", "3", "--iterations", "60"]) == 0
            report = base / "report.json"
            assert main(["evaluate", "--corpus", str(corpus),
                         "--methods", "baseline,user,item,fm",
                         "--seed", "21", "--out", str(report)]) == 0
            outputs[run_id] = {
                "reviews": (corpus / "reviews.jsonl").read_bytes(),
                "ratings": (corpus / "gold" / "ratings.tsv").read_bytes(),
                "normalized": norm.read_bytes(),
                "model": model.read_bytes(),
                "partition": partition.read_bytes(),
                "topics": topics.read_bytes(),
                "report": report.read_bytes(),
            }
        for name in outputs["one"]:
            assert outputs["one"][name] == outputs["two"][name], name
