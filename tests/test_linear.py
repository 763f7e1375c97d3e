from dataclasses import replace

import numpy as np
import pytest

from uclso.clustering import kmeans
from uclso.linear import (
    LinearModel,
    SingleClassError,
    TrainConfig,
    TrainMeta,
    br_fit,
    constant_model,
    fit_lockstep,
    predict,
    score,
    train_linear,
)
from uclso.oversample import OversampleConfig, augment_all


def blobs_2d(seed=0, n=50, centers=((0, 0), (5, 5))):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(c, 0.6, (n, 2)) for c in centers])
    y = np.concatenate([np.zeros(n, dtype=int), np.ones(n, dtype=int)])
    return X, y


def reference_fit(X, y, cfg):
    """One model at a time: the per-model minibatch loop the lockstep
    trainer replaces, kept as the reference it must agree with."""
    n, d = X.shape
    s = np.where(y == 1, 1.0, -1.0)
    lam = 1.0 / (cfg.reg_c * n)
    decay = cfg.lr_decay if cfg.lr_decay is not None else lam
    rng = np.random.default_rng(cfg.seed)
    w = np.zeros(d)
    b = 0.0
    t = 0
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = perm[start:start + cfg.batch_size]
            Xb, sb = X[batch], s[batch]
            viol = sb * (Xb @ w + b) < 1.0
            t += 1
            eta = cfg.learning_rate / (1.0 + cfg.learning_rate * decay * t)
            grad_w = lam * w
            grad_b = 0.0
            if viol.any():
                grad_w = grad_w - (sb[viol, None] * Xb[viol]).sum(axis=0) / batch.size
                grad_b = -float(sb[viol].sum()) / batch.size
            w = w - eta * grad_w
            b = b - eta * grad_b
    return w, b


def grid_search_accuracy(X, y, resolution=25):
    """Brute-force oracle: best training accuracy of any linear rule over a
    coarse (w, b) grid (weights on the unit circle, bias over data range)."""
    s = np.where(y == 1, 1.0, -1.0)
    best = 0.0
    limit = np.abs(X).max() * 1.5
    for angle in np.linspace(0, 2 * np.pi, 72, endpoint=False):
        w = np.array([np.cos(angle), np.sin(angle)])
        proj = X @ w
        for b in np.linspace(-limit, limit, resolution):
            acc = float((np.sign(proj + b) == s).mean())
            best = max(best, acc)
    return best


class TestTrainLinear:
    def test_separable_1d(self):
        X = np.array([[-1.0]] * 20 + [[1.0]] * 20)
        y = np.array([0] * 20 + [1] * 20)
        model = train_linear(X, y, TrainConfig(seed=1))
        assert (predict(model, X) == y).all()

    def test_no_signal_collapses_to_majority(self):
        X = np.ones((30, 2))
        y = np.array([1] * 5 + [0] * 25)
        model = train_linear(X, y, TrainConfig(seed=1))
        preds = predict(model, X)
        acc = (preds == y).mean()
        assert acc == pytest.approx(25 / 30)

    def test_blobs_beat_095_and_grid_oracle_confirms_margin(self):
        X, y = blobs_2d(seed=3)
        X_test, y_test = blobs_2d(seed=4)
        assert grid_search_accuracy(X, y) == 1.0  # a perfect separator exists
        model = train_linear(X, y, TrainConfig(seed=2))
        acc = (predict(model, X_test) == y_test).mean()
        assert acc >= 0.95

    def test_deterministic(self):
        X, y = blobs_2d(seed=5)
        a = train_linear(X, y, TrainConfig(seed=9))
        b = train_linear(X, y, TrainConfig(seed=9))
        assert np.array_equal(a.weights, b.weights)
        assert a.bias == b.bias
        assert a.train_meta == b.train_meta

    def test_single_class_rejected(self):
        X = np.zeros((10, 2))
        with pytest.raises(SingleClassError):
            train_linear(X, np.ones(10, dtype=int), TrainConfig())

    def test_non_finite_rejected(self):
        X = np.array([[np.inf, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            train_linear(X, np.array([0, 1]), TrainConfig())

    def test_objective_decreases_with_more_epochs(self):
        X, y = blobs_2d(seed=7)
        short = train_linear(X, y, TrainConfig(seed=1, epochs=2))
        long = train_linear(X, y, TrainConfig(seed=1, epochs=60))
        assert long.train_meta.objective <= short.train_meta.objective + 1e-9


class TestScorePredict:
    def test_constant_bias(self):
        model = constant_model(3, 0.7)
        assert np.allclose(score(model, np.zeros((4, 3))), 0.7)

    def test_dot_product(self):
        model = LinearModel(np.array([1.0, 0.0]), 0.5, TrainMeta(1.0, 0, 0.0))
        assert score(model, np.array([[3.0, 9.0]]))[0] == pytest.approx(3.5)

    def test_zero_padding_invariance(self):
        X, y = blobs_2d(seed=8)
        model = train_linear(X, y, TrainConfig(seed=1))
        padded = LinearModel(
            np.concatenate([model.weights, [0.0]]), model.bias, model.train_meta
        )
        X_pad = np.hstack([X, np.ones((X.shape[0], 1))])
        assert np.abs(score(model, X) - score(padded, X_pad)).max() < 1e-12

    def test_threshold_strict_and_monotone(self):
        model = LinearModel(np.array([1.0]), 0.0, TrainMeta(1.0, 0, 0.0))
        assert predict(model, np.array([[0.0]]))[0] == 0  # score 0 at threshold 0
        assert predict(model, np.array([[-1.0], [2.0]])).tolist() == [0, 1]
        rng = np.random.default_rng(2)
        X = rng.normal(size=(50, 1))
        counts = [
            predict(model, X, threshold=t).sum() for t in np.linspace(-2, 2, 9)
        ]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_dimension_mismatch(self):
        model = constant_model(3, 0.0)
        with pytest.raises(ValueError, match="dimension"):
            score(model, np.zeros((2, 2)))


class TestBrFit:
    def test_single_label_reduces_to_train_linear(self, fig1_toy):
        sub = fig1_toy.subset(np.arange(200))
        cfg = OversampleConfig(seed=1, mode="none")
        augments = augment_all(sub, cfg)
        br = br_fit(sub, augments, TrainConfig(seed=3, epochs=10))
        assert len(br.models) == sub.q
        assert br.constant_labels == ()

    def test_none_mode_matches_plain_training_data(self, fig1_toy):
        cfg = OversampleConfig(seed=1, mode="none")
        augments = augment_all(fig1_toy, cfg)
        for l, aug in enumerate(augments):
            assert len(aug.extra) == 0
            assert aug.features() is fig1_toy.features
            assert np.array_equal(aug.label_vector(), fig1_toy.labels[:, l])

    def test_uclso_and_none_identical_for_balanced_label(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 2))
        labels = np.array([[1]] * 20 + [[0]] * 20)
        from uclso.dataset import MultiLabelDataset

        ds = MultiLabelDataset(X, labels, ("x0", "x1"), ("l0",))
        assign = kmeans(X, 2, seed=1)
        cfg_u = OversampleConfig(k_clusters=2, seed=1, mode="uclso")
        cfg_n = OversampleConfig(k_clusters=2, seed=1, mode="none")
        a = br_fit(ds, augment_all(ds, cfg_u, assign), TrainConfig(seed=2, epochs=10))
        b = br_fit(ds, augment_all(ds, cfg_n), TrainConfig(seed=2, epochs=10))
        assert np.array_equal(a.models[0].weights, b.models[0].weights)
        assert a.models[0].bias == b.models[0].bias

    def test_single_class_label_raises_with_name(self):
        rng = np.random.default_rng(0)
        from uclso.dataset import MultiLabelDataset

        ds = MultiLabelDataset(
            rng.normal(size=(10, 2)),
            np.hstack([np.ones((10, 1), dtype=int), np.eye(10, 1, dtype=int)]),
            ("x0", "x1"),
            ("always_on", "rare"),
        )
        augments = augment_all(ds, OversampleConfig(seed=1, mode="none"))
        with pytest.raises(SingleClassError, match="always_on"):
            br_fit(ds, augments, TrainConfig(seed=1, epochs=5))
        br = br_fit(
            ds, augments, TrainConfig(seed=1, epochs=5), on_single_class="constant"
        )
        assert br.constant_labels == ("always_on",)
        assert (predict(br.models[0], ds.features) == 1).all()


class TestLockstep:
    @pytest.mark.parametrize("batch_size", [1, 7, 32, 500])
    @pytest.mark.parametrize("lr_decay", [None, 0.05])
    def test_agrees_with_reference_loop(self, batch_size, lr_decay):
        # problems of mixed sizes over one shared matrix: most sizes leave a
        # partial last batch, and batch_size 500 exceeds every row count
        rng = np.random.default_rng(batch_size)
        for d in (1, 2, 5):
            X = rng.normal(size=(400, d)) * rng.uniform(0.1, 10, d)
            sizes = rng.integers(3, 200, size=6)
            rows = [rng.choice(400, size=k, replace=False) for k in sizes]
            targets = [np.resize([0, 1, 1], k) for k in sizes]
            seeds = list(rng.integers(1 << 30, size=6))
            cfg = TrainConfig(epochs=9, batch_size=batch_size, lr_decay=lr_decay)
            models, constant = fit_lockstep(X, rows, targets, seeds, cfg)
            assert constant == []
            for model, r, y, seed in zip(models, rows, targets, seeds):
                w, b = reference_fit(X[r], y, replace(cfg, seed=int(seed)))
                assert np.abs(model.weights - w).max() <= 1e-12 * (1 + np.abs(w).max())
                assert abs(model.bias - b) <= 1e-12 * (1 + abs(b))

    def test_fit_alone_equals_fit_in_group(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(300, 3))
        rows = [rng.choice(300, size=k, replace=False) for k in (250, 41, 120, 33)]
        targets = [(X[r, 0] + rng.normal(0, 0.5, r.size) > 0).astype(int) for r in rows]
        cfg = TrainConfig(epochs=12)
        models, _ = fit_lockstep(X, rows, targets, [1, 2, 3, 4], cfg)
        for model, r, y, seed in zip(models, rows, targets, (1, 2, 3, 4)):
            alone = train_linear(X[r], y, replace(cfg, seed=seed))
            assert np.array_equal(alone.weights, model.weights)
            assert alone.bias == model.bias
            assert alone.train_meta == model.train_meta

    def test_single_class_problem_constant_or_raised(self):
        X = np.arange(20.0).reshape(10, 2)
        rows = [np.arange(10), np.arange(5)]
        targets = [np.resize([0, 1], 10), np.ones(5, dtype=int)]
        models, constant = fit_lockstep(
            X, rows, targets, [0, 1], TrainConfig(epochs=2), on_single_class="constant"
        )
        assert constant == [1]
        assert models[1].bias == 1.0 and not models[1].weights.any()
        with pytest.raises(SingleClassError, match="label 'b'"):
            fit_lockstep(X, rows, targets, [0, 1], TrainConfig(epochs=2), names=("a", "b"))

    def test_row_count_must_match_targets(self):
        with pytest.raises(ValueError, match="match"):
            fit_lockstep(np.zeros((4, 2)), [np.arange(4)], [np.array([0, 1, 0])], [0],
                         TrainConfig())
