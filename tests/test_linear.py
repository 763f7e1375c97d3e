from dataclasses import replace

import numpy as np
import pytest

from uclso.clustering import kmeans
from uclso.dataset import MultiLabelDataset
from uclso.experiment import _score_cell
from uclso.linear import (
    LinearModel,
    TrainConfig,
    TrainMeta,
    br_problems,
    constant_model,
    fit_lockstep,
    score,
)
from uclso.oversample import OversampleConfig, iter_augments


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


def fit_one(X, y, cfg):
    """One model on all of X's rows, under cfg.seed."""
    models, _ = fit_lockstep(X, [np.arange(len(X))], [y], [cfg.seed], cfg)
    return models[0]


def predict(model, X):
    return (score(model, X) > 0.0).astype(int)


def fit_cell(ds, os_cfg, train_cfg, assign=None):
    """Every label's model of one cell: each label's synthetic rows
    stacked after the base rows, one binary-relevance problem per label."""
    augments = list(iter_augments(ds, os_cfg, assign))
    X = np.vstack([ds.features] + [aug.extra.points for aug in augments])
    rows, targets, seeds = br_problems(
        ds.labels, 0, [len(aug.extra) for aug in augments], train_cfg.seed
    )
    return fit_lockstep(X, rows, targets, seeds, train_cfg)


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
        model = fit_one(X, y, TrainConfig(seed=1))
        assert (predict(model, X) == y).all()

    def test_no_signal_collapses_to_majority(self):
        X = np.ones((30, 2))
        y = np.array([1] * 5 + [0] * 25)
        model = fit_one(X, y, TrainConfig(seed=1))
        preds = predict(model, X)
        acc = (preds == y).mean()
        assert acc == pytest.approx(25 / 30)

    def test_blobs_beat_095_and_grid_oracle_confirms_margin(self):
        X, y = blobs_2d(seed=3)
        X_test, y_test = blobs_2d(seed=4)
        assert grid_search_accuracy(X, y) == 1.0  # a perfect separator exists
        model = fit_one(X, y, TrainConfig(seed=2))
        acc = (predict(model, X_test) == y_test).mean()
        assert acc >= 0.95

    def test_deterministic(self):
        X, y = blobs_2d(seed=5)
        a = fit_one(X, y, TrainConfig(seed=9))
        b = fit_one(X, y, TrainConfig(seed=9))
        assert np.array_equal(a.weights, b.weights)
        assert a.bias == b.bias
        assert a.train_meta == b.train_meta

    def test_non_finite_rejected(self):
        X = np.array([[np.inf, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            fit_one(X, np.array([0, 1]), TrainConfig())

    def test_objective_decreases_with_more_epochs(self):
        X, y = blobs_2d(seed=7)
        short = fit_one(X, y, TrainConfig(seed=1, epochs=2))
        long = fit_one(X, y, TrainConfig(seed=1, epochs=60))
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
        model = fit_one(X, y, TrainConfig(seed=1))
        padded = LinearModel(
            np.concatenate([model.weights, [0.0]]), model.bias, model.train_meta
        )
        X_pad = np.hstack([X, np.ones((X.shape[0], 1))])
        assert np.abs(score(model, X) - score(padded, X_pad)).max() < 1e-12

    def test_threshold_strict_and_monotone(self):
        # scores -1, 0 and 2: a cell's F1 is 1 only if a score of exactly 0
        # predicts 0 and every other score predicts by its sign
        model = LinearModel(np.array([1.0]), 0.0, TrainMeta(1.0, 0, 0.0))
        ds = MultiLabelDataset(
            np.array([[-1.0], [0.0], [2.0]]), np.array([[0], [0], [1]]), ("x",), ("l",)
        )
        cell = _score_cell(ds, np.arange(3), [model], (), 0, 0)
        assert cell.f1 == (1.0,)
        shifted = LinearModel(model.weights, 1e-9, model.train_meta)
        assert _score_cell(ds, np.arange(3), [shifted], (), 0, 0).f1[0] < 1.0

    def test_dimension_mismatch(self):
        model = constant_model(3, 0.0)
        with pytest.raises(ValueError, match="dimension"):
            score(model, np.zeros((2, 2)))


class TestBrFit:
    def test_single_label_reduces_to_train_linear(self, fig1_toy):
        sub = fig1_toy.subset(np.arange(200))
        cfg = OversampleConfig(seed=1, mode="none")
        models, constant = fit_cell(sub, cfg, TrainConfig(seed=3, epochs=10))
        assert len(models) == sub.q
        assert constant == []

    def test_none_mode_matches_plain_training_data(self, fig1_toy):
        cfg = OversampleConfig(seed=1, mode="none")
        augments = list(iter_augments(fig1_toy, cfg))
        rows, targets, _ = br_problems(
            fig1_toy.labels, 0, [len(aug.extra) for aug in augments], 0
        )
        for l, aug in enumerate(augments):
            assert len(aug.extra) == 0
            assert aug.base is fig1_toy
            assert np.array_equal(rows[l], np.arange(fig1_toy.n))
            assert np.array_equal(targets[l], fig1_toy.labels[:, l])

    def test_uclso_and_none_identical_for_balanced_label(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 2))
        labels = np.array([[1]] * 20 + [[0]] * 20)
        ds = MultiLabelDataset(X, labels, ("x0", "x1"), ("l0",))
        assign = kmeans(X, 2, seed=1)
        cfg_u = OversampleConfig(k_clusters=2, seed=1, mode="uclso")
        cfg_n = OversampleConfig(k_clusters=2, seed=1, mode="none")
        a, _ = fit_cell(ds, cfg_u, TrainConfig(seed=2, epochs=10), assign)
        b, _ = fit_cell(ds, cfg_n, TrainConfig(seed=2, epochs=10))
        assert np.array_equal(a[0].weights, b[0].weights)
        assert a[0].bias == b[0].bias

    def test_single_class_label_gets_constant_scorer(self):
        rng = np.random.default_rng(0)
        ds = MultiLabelDataset(
            rng.normal(size=(10, 2)),
            np.hstack([np.ones((10, 1), dtype=int), np.eye(10, 1, dtype=int)]),
            ("x0", "x1"),
            ("always_on", "rare"),
        )
        models, constant = fit_cell(
            ds, OversampleConfig(seed=1, mode="none"), TrainConfig(seed=1, epochs=5)
        )
        assert constant == [0]
        assert (predict(models[0], ds.features) == 1).all()


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
            alone = fit_one(X[r], y, replace(cfg, seed=seed))
            assert np.array_equal(alone.weights, model.weights)
            assert alone.bias == model.bias
            assert alone.train_meta == model.train_meta

    def test_single_class_problem_gets_constant_model(self):
        X = np.arange(20.0).reshape(10, 2)
        rows = [np.arange(10), np.arange(5), np.arange(3)]
        targets = [np.resize([0, 1], 10), np.ones(5, dtype=int), np.zeros(3, dtype=int)]
        models, constant = fit_lockstep(X, rows, targets, [0, 1, 2], TrainConfig(epochs=2))
        assert constant == [1, 2]
        assert models[1].bias == 1.0 and not models[1].weights.any()
        assert models[2].bias == -1.0 and not models[2].weights.any()
        assert models[0].train_meta.epochs_run == 2

    def test_row_count_must_match_targets(self):
        with pytest.raises(ValueError, match="match"):
            fit_lockstep(np.zeros((4, 2)), [np.arange(4)], [np.array([0, 1, 0])], [0],
                         TrainConfig())
