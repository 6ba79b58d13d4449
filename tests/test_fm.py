from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dishrec import fm
from dishrec.errors import DivergenceDetected, FeatureIndexOutOfRange, InvalidConfig
from dishrec.fm import (
    FMModel,
    FeatureMap,
    _runs,
    build_fm_dataset,
    fm_predict,
    fm_predict_gradients,
    fm_train,
)
from dishrec.pipeline import build_recommender
from dishrec.synth import synth_corpus

from oracles import (
    fm_naive,
    fm_predict_gradients_reference,
    fm_predict_reference,
    fm_sgd_step_reference,
    fm_stepwise_forward,
    fm_stepwise_step,
    fm_train_reference,
    fm_train_stepwise_reference,
    recommend_top_k_reference,
)


def random_model(rng, n, kdim, scale=1.0):
    return FMModel(
        w0=float(rng.normal() * scale),
        w=rng.normal(size=n) * scale,
        V=rng.normal(size=(n, kdim)) * scale,
        lambda_w=0.01,
        lambda_v=0.01,
        kdim=kdim,
    )


def random_instance(rng, n, max_active=4, binary=False):
    k = int(rng.integers(1, max_active + 1))
    idx = rng.choice(n, size=min(k, n), replace=False)
    return [
        (int(i), 1.0 if binary else float(rng.normal()))
        for i in sorted(idx)
    ]


class TestPredict:
    def test_zero_model(self):
        model = FMModel(0.0, np.zeros(4), np.zeros((4, 2)), 0.0, 0.0, 2)
        assert fm_predict([(0, 1.0), (2, 1.0)], model) == 0.0

    def test_single_pair_closed_form(self):
        a, b = 0.7, -1.3
        model = FMModel(0.0, np.zeros(2), np.array([[a], [b]]), 0.0, 0.0, 1)
        assert fm_predict([(0, 1.0), (1, 1.0)], model) == pytest.approx(a * b, abs=1e-12)

    def test_linear_time_form_equals_naive_pairwise(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            kdim = int(rng.integers(1, 4))
            model = random_model(rng, n, kdim)
            x = random_instance(rng, n)
            got = fm_predict(x, model)
            want = fm_naive(x, model.w0, model.w.tolist(), model.V.tolist())
            assert got == pytest.approx(want, abs=1e-10)

    def test_index_out_of_range(self):
        model = random_model(np.random.default_rng(0), 3, 2)
        with pytest.raises(FeatureIndexOutOfRange):
            fm_predict([(5, 1.0)], model)
        with pytest.raises(FeatureIndexOutOfRange):  # a list view would wrap it
            fm_predict([(0, 1.0), (-1, 1.0)], model)

    def test_prediction_gradients_match_finite_differences(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            kdim = int(rng.integers(1, 4))
            model = random_model(rng, n, kdim, scale=0.7)
            x = random_instance(rng, n)
            g_w0, grad_w, grad_V = fm_predict_gradients(x, model)
            step = 1e-6

            def pred_with(attr, ix, delta):
                # a model is read-only once built, so perturb before building
                params = {"w0": model.w0, "w": model.w.copy(), "V": model.V.copy()}
                if attr == "w0":
                    params["w0"] += delta
                else:
                    params[attr][ix] += delta
                return fm_predict(x, FMModel(**params, lambda_w=model.lambda_w,
                                             lambda_v=model.lambda_v, kdim=model.kdim))

            fd = (pred_with("w0", None, step) - pred_with("w0", None, -step)) / (2 * step)
            assert abs(fd - g_w0) <= 1e-6 * max(1.0, abs(fd))
            for i, g in grad_w:
                fd = (pred_with("w", i, step) - pred_with("w", i, -step)) / (2 * step)
                assert abs(fd - g) <= 1e-6 * max(1.0, abs(fd))
            for i, gv in grad_V:
                for f in range(kdim):
                    fd = (pred_with("V", (i, f), step) - pred_with("V", (i, f), -step)) / (2 * step)
                    assert abs(fd - gv[f]) <= 1e-6 * max(1.0, abs(fd))


class TestModelViews:
    """Prediction reads the list views a model takes once, at construction;
    it must equal the per-call conversion it replaced (tests/oracles.py)."""

    @pytest.mark.parametrize("V", [
        np.array([[1.0, 2.0, 3.0], [1.0, 1.0, 1.0]]),  # kdim 3, declared 2
        np.ones((1, 2)),                               # too few rows
        np.ones((3, 2)),                               # too many rows
        np.ones(4),                                    # not a matrix
    ], ids=["kdim", "short", "long", "flat"])
    def test_shape_mismatch_rejected(self, V):
        with pytest.raises(InvalidConfig):
            FMModel(0.0, np.zeros(2), V, 0.0, 0.0, kdim=2)

    def test_in_place_writes_raise(self):
        w, V = np.array([0.5, -1.0]), np.array([[1.0, 2.0], [3.0, -1.0]])
        model = FMModel(0.25, w, V, 0.0, 0.0, kdim=2)
        before = fm_predict([(0, 1.0), (1, 2.0)], model)
        with pytest.raises(ValueError):
            model.w[0] = 9.0
        with pytest.raises(ValueError):
            model.V[1] += 1.0
        # the model holds copies: the caller's arrays stay writeable and
        # changing them does not reach the model
        w[0], V[1, 1] = 9.0, 7.0
        assert fm_predict([(0, 1.0), (1, 2.0)], model) == before
        assert (model.w.tolist(), model.V.tolist()) == ([0.5, -1.0], [[1.0, 2.0], [3.0, -1.0]])

    def test_predictions_and_gradients_equal_reference(self):
        rng = np.random.default_rng(47)
        for _ in range(400):
            n = int(rng.integers(1, 8))
            kdim = int(rng.integers(1, 10))
            model = random_model(rng, n, kdim, scale=float(rng.choice([0.05, 1.0, 40.0])))
            width = int(rng.integers(1, 5))
            # repeated indices; zero, negative and non-unit values
            values = rng.choice([0.0, 1.0, -1.0, 2.5], size=width) * rng.uniform(0.1, 3.0, width)
            x = [(int(i), float(v)) for i, v in zip(rng.integers(0, n, size=width), values)]
            assert fm_predict(x, model) == fm_predict_reference(x, model), x
            g_w0, grad_w, grad_V = fm_predict_gradients(x, model)
            r_w0, r_w, r_V = fm_predict_gradients_reference(x, model)
            assert (g_w0, grad_w) == (r_w0, r_w)
            assert [(i, g.tolist()) for i, g in grad_V] == [(i, g.tolist()) for i, g in r_V]


@pytest.fixture(scope="module")
def fm_engine():
    return build_recommender(synth_corpus(1, 30, 8, 10), seed=1)


class TestQueries:
    def test_build_recommender_trains_fifty_epochs(self, fm_engine):
        assert len(fm_engine.fm_model.history["train_mse"]) == 50
        assert fm_engine.fm_model.kdim == 8

    def test_recommend_top_k_equals_reference(self, fm_engine):
        items = sorted({item_id for _, item_id in fm_engine.matrix.columns})
        for user_id in fm_engine.matrix.user_ids:
            for item_id in items:
                got = fm_engine.recommend_top_k(user_id, item_id, "fm", k=10, side_weight=0.2)
                want = recommend_top_k_reference(fm_engine, user_id, item_id, "fm", k=10,
                                                 side_weight=0.2)
                assert got == want, (user_id, item_id)

    def test_one_fm_predict_call_per_candidate(self, fm_engine, monkeypatch):
        """The query resolves ``fm.fm_predict`` at call time, once per
        candidate column, so a wrapper on the module attribute sees each."""
        calls = []
        real = fm.fm_predict

        def counting(x, model):
            calls.append(x)
            return real(x, model)

        monkeypatch.setattr(fm, "fm_predict", counting)
        matrix = fm_engine.matrix
        user_id, item_id = matrix.user_ids[3], matrix.columns[0][1]
        fm_engine.recommend_top_k(user_id, item_id, "fm")
        assert calls == [fm_engine.fm_features.encode(user_id, matrix.columns[j])
                         for j in matrix.columns_for_item(item_id)]


def planted_dataset(rng, n=30, kdim=2, n_samples=300, sigma=0.1):
    truth = FMModel(
        w0=float(rng.normal()),
        w=rng.normal(size=n) * 0.5,
        V=rng.normal(size=(n, kdim)) * 0.5,
        lambda_w=0.0,
        lambda_v=0.0,
        kdim=kdim,
    )
    data = []
    for _ in range(n_samples):
        x = random_instance(rng, n, max_active=2, binary=True)
        y = fm_naive(x, truth.w0, truth.w.tolist(), truth.V.tolist())
        data.append((x, y + float(rng.normal()) * sigma))
    return truth, data


class TestSgdStep:
    """The stepwise oracle's SGD step on list parameters, updated in place."""

    def test_returns_pre_update_prediction_and_moves_bias(self):
        w, V = [0.0] * 3, [[0.0, 0.0] for _ in range(3)]
        x = [(0, 1.0), (2, 1.0)]
        y_hat, w0 = fm_stepwise_step(x, 4.0, 0.0, w, V, 0.1, 0.0, 0.0, 2)
        assert y_hat == 0.0                       # prediction before the step
        assert w0 == pytest.approx(0.8)           # -lr * 2 * (0 - 4)
        assert w[0] == w[2] == pytest.approx(0.8)
        assert w[1] == 0.0                        # untouched coordinate

    def test_weight_decay_skips_bias(self):
        w, V = [1.0, 1.0], [[0.0], [0.0]]
        x = [(0, 1.0)]
        y, _ = fm_stepwise_forward(x, 2.0, w, V, 1)  # step with zero error leaves only the decay
        _, w0 = fm_stepwise_step(x, y, 2.0, w, V, 0.1, 1.0, 1.0, 1)
        assert w0 == 2.0
        assert w[0] == pytest.approx(0.9)         # 1 - lr * lambda_w * 1
        assert w[1] == 1.0


class TestRuns:
    """The split of a pass into runs of consecutive visits that share no
    feature index and have one width, as (start, stop, width)."""

    def test_repeated_user_ends_a_run(self):
        # (user, column) instances; visit 2 is user 0 again, visit 3 column 5 again
        features = [(0, 3), (1, 4), (0, 5), (2, 5)]
        assert _runs([0, 1, 2, 3], features) == [(0, 2, 2), (2, 3, 2), (3, 4, 2)]

    def test_width_change_ends_a_run(self):
        features = [(0,), (1, 2), (3, 4), (5,)]
        assert _runs([0, 1, 2, 3], features) == [(0, 1, 1), (1, 3, 2), (3, 4, 1)]

    def test_repeat_inside_one_instance_does_not_end_a_run(self):
        assert _runs([0, 1], [(0, 0), (1, 2)]) == [(0, 2, 2)]

    def test_wrapped_steps_pass_splits_at_the_second_visit(self):
        # 5 steps over 3 instances visit instances 2 and 0 twice
        order = [2, 0, 1]
        visits = [order[step % 3] for step in range(5)]
        assert _runs(visits, [(0, 3), (1, 4), (2, 5)]) == [(0, 3, 2), (3, 5, 2)]

    def test_empty_pass(self):
        assert _runs([], [(0, 1)]) == []


class TestTraining:
    def test_lr_zero_keeps_initialization_and_lambdas(self):
        rng = np.random.default_rng(2)
        _, data = planted_dataset(rng, n=10, n_samples=40)
        model = fm_train(data[:30], data[30:], lr=0.0, epochs=5, kdim=2, seed=7, n_features=10)
        ref = np.random.default_rng(7).normal(0.0, 0.01, size=(10, 2))
        assert model.w0 == 0.0
        assert np.all(model.w == 0.0)
        assert np.array_equal(model.V, ref)
        assert model.lambda_w == 0.01 and model.lambda_v == 0.01

    def test_planted_recovery_holdout_rmse(self):
        rng = np.random.default_rng(4)
        _, data = planted_dataset(rng, n=30, kdim=2, n_samples=400, sigma=0.1)
        train, holdout = data[:320], data[320:]
        model = fm_train(train, lr=0.05, epochs=100, kdim=2, seed=4, n_features=30)
        errs = [fm_predict(x, model) - y for x, y in holdout]
        rmse = float(np.sqrt(np.mean(np.square(errs))))
        assert rmse <= 0.2

    def test_constant_targets_learned_by_bias(self):
        rng = np.random.default_rng(5)
        data = [(random_instance(rng, 8, binary=True), 3.7) for _ in range(50)]
        model = fm_train(data, lr=0.05, epochs=120, kdim=3, seed=5, n_features=8)
        errs = [fm_predict(x, model) - y for x, y in data]
        assert float(np.sqrt(np.mean(np.square(errs)))) <= 0.05

    def test_training_bit_reproducible(self):
        rng = np.random.default_rng(6)
        _, data = planted_dataset(rng, n=12, n_samples=60)
        a = fm_train(data, lr=0.01, epochs=10, kdim=2, seed=11, n_features=12)
        b = fm_train(data, lr=0.01, epochs=10, kdim=2, seed=11, n_features=12)
        assert a.w0 == b.w0
        assert np.array_equal(a.w, b.w)
        assert np.array_equal(a.V, b.V)
        assert a.history["train_mse"] == b.history["train_mse"]

    def test_lambdas_stay_in_bounds(self):
        rng = np.random.default_rng(7)
        _, data = planted_dataset(rng, n=12, n_samples=80, sigma=0.3)
        model = fm_train(data, lr=0.05, epochs=40, kdim=2, seed=3,
                         n_features=12, lambda_max=10.0)
        for lw, lv in model.history["lambdas"]:
            assert 0.0 <= lw <= 10.0
            assert 0.0 <= lv <= 10.0

    def test_low_lr_mode_runs_with_stable_tail(self):
        rng = np.random.default_rng(8)
        _, data = planted_dataset(rng, n=20, n_samples=200)
        model = fm_train(data, lr=0.001, epochs=100, kdim=2, seed=2, n_features=20)
        tail = model.history["train_mse"][-10:]
        for a, b in zip(tail, tail[1:]):
            assert b <= a + 1e-3

    def test_steps_iteration_unit(self):
        rng = np.random.default_rng(9)
        _, data = planted_dataset(rng, n=8, n_samples=40)
        model = fm_train(data, lr=0.01, epochs=25, kdim=2, seed=1,
                         n_features=8, iteration_unit="steps")
        assert len(model.history["train_mse"]) == 1

    def test_divergence_raises(self):
        rng = np.random.default_rng(10)
        _, data = planted_dataset(rng, n=6, n_samples=30)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceDetected):
                fm_train(data, lr=1e6, epochs=50, kdim=2, seed=0, n_features=6)

    @pytest.mark.parametrize("steps", [11, 12, 13])
    def test_non_finite_epoch_mse_raises(self, steps):
        # huge but finite parameters whose train MSE overflows to inf or nan
        rng = np.random.default_rng(10)
        _, data = planted_dataset(rng, n=6, n_samples=30)
        with pytest.raises(DivergenceDetected, match="train MSE"):
            fm_train(data, lr=1e6, epochs=steps, kdim=2, seed=0, n_features=6,
                     iteration_unit="steps")

    def test_out_of_range_index_rejected_in_train_or_validation(self):
        rng = np.random.default_rng(11)
        _, data = planted_dataset(rng, n=6, n_samples=20)
        for bad in ([(6, 1.0)], [(-1, 1.0), (2, 1.0)]):
            with pytest.raises(FeatureIndexOutOfRange):
                fm_train(data[:10] + [(bad, 1.0)], data[10:], epochs=1, kdim=2, n_features=6)
            with pytest.raises(FeatureIndexOutOfRange):
                fm_train(data[:10], data[10:] + [(bad, 1.0)], epochs=1, kdim=2, n_features=6)

    def test_empty_train_rejected(self):
        with pytest.raises(InvalidConfig):
            fm_train([], lr=0.01, epochs=1, kdim=2)

    @pytest.mark.parametrize("kwargs", [
        dict(kdim=0), dict(kdim=-1), dict(epochs=-1),
        dict(lr=-0.01), dict(lr=float("nan")), dict(lr=float("inf")),
        dict(lambda_init=-0.01), dict(lambda_init=float("nan")),
        dict(lambda_max=-1.0), dict(lambda_max=float("inf")),
        dict(lambda_lr=-0.5), dict(lambda_lr=float("nan")),
    ])
    def test_bad_arguments_rejected(self, kwargs):
        rng = np.random.default_rng(12)
        _, data = planted_dataset(rng, n=6, n_samples=20)
        with pytest.raises(InvalidConfig):
            fm_train(data, **{"lr": 0.01, "epochs": 2, "kdim": 2, "n_features": 6, **kwargs})

    def test_lambda_step_overflow_is_divergence_not_a_warning(self):
        # no outer errstate: a RuntimeWarning is an error under pytest here
        rng = np.random.default_rng(10)
        _, data = planted_dataset(rng, n=6, n_samples=30)
        with pytest.raises(DivergenceDetected, match="train MSE"):
            fm_train(data, lr=100.0, epochs=3, kdim=2, seed=0, n_features=6)


class TestFeatureMap:
    def test_encode_layout(self):
        fmap = FeatureMap(("u0", "u1"), (("r0", 1), ("r1", 2)))
        assert fmap.encode("u1", ("r0", 1)) == ((1, 1.0), (2, 1.0))
        assert fmap.n_features == 4

    def test_dataset_from_matrix(self):
        from dishrec.cf import RatingMatrix
        matrix = RatingMatrix.from_entries(
            [("u0", "r0", 0, 4.0), ("u1", "r1", 1, 2.0)]
        )
        data, fmap = build_fm_dataset(matrix)
        assert len(data) == 2
        assert fmap.n_features == 4
        (x0, y0) = data[0]
        assert y0 == 4.0
        assert all(v == 1.0 for _, v in x0)

    def test_dataset_in_user_then_column_order(self):
        from dishrec.cf import RatingMatrix
        rng = np.random.default_rng(5)
        entries = [(f"u{u}", f"r{j % 4}", j, float(rng.integers(1, 6)))
                   for u in range(7) for j in range(9) if rng.random() < 0.4]
        matrix = RatingMatrix.from_entries(entries)
        data, fmap = build_fm_dataset(matrix)
        want = [
            (fmap.encode(user_id, column), float(matrix.ratings[u, j]))
            for u, user_id in enumerate(matrix.user_ids)
            for j, column in enumerate(matrix.columns)
            if matrix.mask[u, j]
        ]
        assert len(want) > 10
        assert data == want


def _synth_fm_dataset():
    """The FM dataset of the 100-user synthetic corpus."""
    engine = build_recommender(synth_corpus(1, 100, 20, 24), seed=1, with_fm=False)
    data, fmap = build_fm_dataset(engine.matrix)
    return data, fmap.n_features


def _reference_case(name):
    rng = np.random.default_rng(31)
    if name == "synth":
        data, n = _synth_fm_dataset()
        return data, None, dict(lr=0.05, epochs=4, kdim=8, seed=1, n_features=n)
    if name == "planted":
        _, data = planted_dataset(rng, n=30, kdim=2, n_samples=400)
        return data[:320], None, dict(lr=0.05, epochs=30, kdim=2, seed=404, n_features=30)
    if name == "planted-k9":  # factor sums longer than numpy's 8-wide pairwise blocks
        _, data = planted_dataset(rng, n=30, kdim=2, n_samples=400)
        return data[:320], None, dict(lr=0.05, epochs=10, kdim=9, seed=404, n_features=30)
    if name == "planted-low-lr":
        _, data = planted_dataset(rng, n=20, n_samples=200)
        return data, None, dict(lr=0.001, epochs=30, kdim=2, seed=2, n_features=20)
    if name == "non-binary":
        data = [(random_instance(rng, 12), float(rng.normal())) for _ in range(80)]
        data.insert(0, ([(3, 0.5), (3, -1.5), (7, 2.0)], 1.0))  # a repeated index
        return data[:60], data[60:], dict(lr=0.02, epochs=20, kdim=3, seed=5, lambda_lr=0.5)
    if name == "steps":
        _, data = planted_dataset(rng, n=8, n_samples=40)
        return data, None, dict(lr=0.01, epochs=95, kdim=2, seed=1, n_features=8,
                                iteration_unit="steps")
    raise AssertionError(name)


class TestReferenceEquivalence:
    """fm_train against the older numpy-per-step trainer. Each update is
    the same elementwise arithmetic; the sums |V_i|^2 and s.s run in another
    order, and the per-epoch passes are numpy reductions that use
    sum_i (dy/dV_i).V_i = 2 * pairwise term. So parameters, lambda
    trajectories and train MSE agree within 1e-12 absolute, not bit for bit."""

    TOL = 1e-12

    @pytest.mark.parametrize("name", ["synth", "planted", "planted-low-lr", "non-binary",
                                      "steps"])
    def test_matches_reference_trainer(self, name):
        train, validation, kwargs = _reference_case(name)
        got = fm_train(train, validation, **kwargs)
        want = fm_train_reference(train, validation, **kwargs)
        assert abs(got.w0 - want.w0) <= self.TOL
        assert np.abs(got.w - want.w).max() <= self.TOL
        assert np.abs(got.V - want.V).max() <= self.TOL
        assert (got.lambda_w, got.lambda_v) == got.history["lambdas"][-1]
        for key in ("lambdas", "train_mse"):
            a, b = np.array(got.history[key]), np.array(want.history[key])
            assert a.shape == b.shape
            assert np.abs(a - b).max() <= self.TOL

    def test_sgd_step_matches_reference_step(self):
        rng = np.random.default_rng(41)
        for case in range(30):
            n, kdim = int(rng.integers(2, 7)), int(rng.integers(1, 4))
            model = random_model(rng, n, kdim, scale=0.7)
            # the reference steps its model in place, so it gets writeable copies
            want = SimpleNamespace(w0=model.w0, w=model.w.copy(), V=model.V.copy(),
                                   lambda_w=0.3, lambda_v=0.2, kdim=kdim)
            w, V = want.w.tolist(), want.V.tolist()
            x = random_instance(rng, n)
            if case % 5 == 0:
                x = x + x[:1]  # a repeated index
            y = float(rng.normal())
            y_hat, w0 = fm_stepwise_step(x, y, want.w0, w, V, 0.05, 0.3, 0.2, kdim)
            assert abs(y_hat - fm_sgd_step_reference(x, y, want, 0.05)) <= self.TOL
            assert abs(w0 - want.w0) <= self.TOL
            assert np.abs(np.array(w) - want.w).max() <= self.TOL
            assert np.abs(np.array(V) - want.V).max() <= self.TOL

    def test_divergence_at_the_same_epoch_and_step(self):
        rng = np.random.default_rng(10)
        _, data = planted_dataset(rng, n=6, n_samples=30)

        def outcome(train_fn, epochs, unit):
            """Where the end-of-run train MSE overflows, the reference's
            Python-float square raises OverflowError or its numpy mean gives
            inf or nan, and fm_train raises DivergenceDetected for the
            non-finite MSE. All three count as "overflow"."""
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    model = train_fn(data, lr=1e6, epochs=epochs, kdim=2, seed=0,
                                     n_features=6, iteration_unit=unit)
            except DivergenceDetected as exc:
                return "overflow" if "train MSE" in str(exc) else "diverged"
            except OverflowError:
                return "overflow"
            mse = model.history["train_mse"]
            return "overflow" if mse and not np.isfinite(mse[-1]) else "finite"

        for unit, horizon in (("epochs", 4), ("steps", 30)):
            got = [outcome(fm_train, e, unit) for e in range(horizon)]
            want = [outcome(fm_train_reference, e, unit) for e in range(horizon)]
            stepwise = [outcome(fm_train_stepwise_reference, e, unit) for e in range(horizon)]
            assert got == want == stepwise
            assert got[0] == "finite" and got[-1] == "diverged"


def assert_same_model(got, want):
    """Bit for bit: w0, w, V, the final lambdas and the whole history."""
    assert got.w0 == want.w0
    assert np.array_equal(got.w, want.w)
    assert np.array_equal(got.V, want.V)
    assert (got.lambda_w, got.lambda_v) == (want.lambda_w, want.lambda_v)
    assert got.history == want.history


class TestStepwiseEquivalence:
    """fm_train against the trainer it replaced, one scalar SGD step at a
    time (tests/oracles.py). The run-batched kernel does the same
    elementwise operations in the same order, so the two agree exactly."""

    @pytest.mark.parametrize("name", ["synth", "planted", "planted-k9", "planted-low-lr",
                                      "non-binary", "steps"])
    def test_equals_stepwise_trainer(self, name):
        train, validation, kwargs = _reference_case(name)
        assert_same_model(fm_train(train, validation, **kwargs),
                          fm_train_stepwise_reference(train, validation, **kwargs))

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_equals_stepwise_trainer_on_random_datasets(self, data):
        n = data.draw(st.integers(1, 8), label="n_features")
        value = st.one_of(st.just(0.0), st.just(1.0), st.floats(-2.0, 2.0))
        # widths 1-4; an index may repeat inside one instance
        instance = st.lists(st.tuples(st.integers(0, n - 1), value), min_size=1, max_size=4)
        example = st.tuples(instance, st.floats(-3.0, 3.0))
        train = data.draw(st.lists(example, min_size=2, max_size=30), label="train")
        validation = data.draw(st.none() | st.lists(example, min_size=1, max_size=6),
                               label="validation")
        unit = data.draw(st.sampled_from(["epochs", "steps"]), label="iteration_unit")
        kwargs = dict(
            lr=data.draw(st.sampled_from([0.0, 0.01, 0.05]), label="lr"),
            epochs=data.draw(st.integers(0, 60 if unit == "steps" else 4), label="epochs"),
            kdim=data.draw(st.integers(1, 9), label="kdim"),
            seed=data.draw(st.integers(0, 2**16), label="seed"),
            n_features=n,
            lambda_lr=data.draw(st.sampled_from([None, 0.5]), label="lambda_lr"),
            iteration_unit=unit,
        )
        assert_same_model(fm_train(train, validation, **kwargs),
                          fm_train_stepwise_reference(train, validation, **kwargs))
