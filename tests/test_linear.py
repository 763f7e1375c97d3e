from dataclasses import replace

import numpy as np
import pytest

from uclso.clustering import kmeans
from uclso.dataset import MultiLabelDataset
from uclso.experiment import _score_cell
from uclso.linear import TrainConfig, TrainingError, br_problems, fit_lockstep, score
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
            eta = 1.0 / (1.0 + lam * t)
            grad_w = lam * w
            grad_b = 0.0
            if viol.any():
                grad_w = grad_w - (sb[viol, None] * Xb[viol]).sum(axis=0) / batch.size
                grad_b = -float(sb[viol].sum()) / batch.size
            w = w - eta * grad_w
            b = b - eta * grad_b
    return w, b


def fit_one(X, y, cfg):
    """The weights and bias of one model on all of X's rows, under
    cfg.seed."""
    weights, bias, _ = fit_lockstep(X, [np.arange(len(X))], [y], [cfg.seed], cfg)
    return weights[0], bias[0]


def objective(w, b, X, y, cfg):
    """The regularized training objective of model (w, b) on X's rows:
    0.5 * lambda * |w|^2 plus the mean hinge loss, lambda = 1 / (reg_c * n)."""
    s = np.where(y == 1, 1.0, -1.0)
    lam = 1.0 / (cfg.reg_c * len(X))
    return 0.5 * lam * float(w @ w) + float(np.maximum(0.0, 1.0 - s * (X @ w + b)).mean())


def predict(w, b, X):
    return (score(w, b, X) > 0.0).astype(int)


def fit_cell(ds, os_cfg, train_cfg, assign=None):
    """Every label's model of one cell: each label's synthetic rows
    stacked after the base rows, one binary-relevance problem per label."""
    augments = list(iter_augments(ds, os_cfg, assign))
    X = np.vstack([ds.features] + [aug.extra.points for aug in augments])
    rows, targets, seeds = br_problems(
        ds.labels, 0, ds.n, [len(aug.extra) for aug in augments], train_cfg.seed
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
        w, b = fit_one(X, y, TrainConfig(seed=1))
        assert (predict(w, b, X) == y).all()

    def test_no_signal_collapses_to_majority(self):
        X = np.ones((30, 2))
        y = np.array([1] * 5 + [0] * 25)
        w, b = fit_one(X, y, TrainConfig(seed=1))
        preds = predict(w, b, X)
        acc = (preds == y).mean()
        assert acc == pytest.approx(25 / 30)

    def test_blobs_beat_095_and_grid_oracle_confirms_margin(self):
        X, y = blobs_2d(seed=3)
        X_test, y_test = blobs_2d(seed=4)
        assert grid_search_accuracy(X, y) == 1.0  # a perfect separator exists
        w, b = fit_one(X, y, TrainConfig(seed=2))
        acc = (predict(w, b, X_test) == y_test).mean()
        assert acc >= 0.95

    def test_deterministic(self):
        X, y = blobs_2d(seed=5)
        w1, b1 = fit_one(X, y, TrainConfig(seed=9))
        w2, b2 = fit_one(X, y, TrainConfig(seed=9))
        assert np.array_equal(w1, w2)
        assert b1 == b2

    def test_non_finite_rejected(self):
        X = np.array([[np.inf, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            fit_one(X, np.array([0, 1]), TrainConfig())

    def test_objective_decreases_with_more_epochs(self):
        X, y = blobs_2d(seed=7)
        short_cfg = TrainConfig(seed=1, epochs=2)
        long_cfg = TrainConfig(seed=1, epochs=60)
        short = objective(*fit_one(X, y, short_cfg), X, y, short_cfg)
        long = objective(*fit_one(X, y, long_cfg), X, y, long_cfg)
        assert long <= short + 1e-9


class TestScorePredict:
    def test_constant_bias(self):
        assert np.allclose(score(np.zeros(3), 0.7, np.ones((4, 3))), 0.7)

    def test_dot_product(self):
        assert score(np.array([1.0, 0.0]), 0.5, np.array([[3.0, 9.0]]))[0] == (
            pytest.approx(3.5)
        )

    def test_zero_padding_invariance(self):
        X, y = blobs_2d(seed=8)
        w, b = fit_one(X, y, TrainConfig(seed=1))
        X_pad = np.hstack([X, np.ones((X.shape[0], 1))])
        padded = score(np.concatenate([w, [0.0]]), b, X_pad)
        assert np.abs(score(w, b, X) - padded).max() < 1e-12

    def test_threshold_strict_and_monotone(self):
        # scores -1, 0 and 2: a cell's F1 is 1 only if a score of exactly 0
        # predicts 0 and every other score predicts by its sign
        weights = np.array([[1.0]])
        ds = MultiLabelDataset(
            np.array([[-1.0], [0.0], [2.0]]), np.array([[0], [0], [1]]), ("x",), ("l",)
        )
        cell = _score_cell(ds, np.arange(3), weights, np.array([0.0]), (), 0, 0)
        assert cell.f1 == (1.0,)
        shifted = _score_cell(ds, np.arange(3), weights, np.array([1e-9]), (), 0, 0)
        assert shifted.f1[0] < 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            score(np.zeros(3), 0.0, np.zeros((2, 2)))


class TestBrFit:
    def test_single_label_reduces_to_train_linear(self, fig1_toy):
        sub = fig1_toy.subset(np.arange(200))
        cfg = OversampleConfig(seed=1, mode="none")
        weights, bias, constant = fit_cell(sub, cfg, TrainConfig(seed=3, epochs=10))
        assert weights.shape == (sub.q, sub.d) and bias.shape == (sub.q,)
        assert constant == []

    def test_none_mode_matches_plain_training_data(self, fig1_toy):
        cfg = OversampleConfig(seed=1, mode="none")
        augments = list(iter_augments(fig1_toy, cfg))
        rows, targets, _ = br_problems(
            fig1_toy.labels, 0, fig1_toy.n, [len(aug.extra) for aug in augments], 0
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
        w_u, b_u, _ = fit_cell(ds, cfg_u, TrainConfig(seed=2, epochs=10), assign)
        w_n, b_n, _ = fit_cell(ds, cfg_n, TrainConfig(seed=2, epochs=10))
        assert np.array_equal(w_u, w_n)
        assert np.array_equal(b_u, b_n)

    def test_single_class_label_gets_constant_scorer(self):
        rng = np.random.default_rng(0)
        ds = MultiLabelDataset(
            rng.normal(size=(10, 2)),
            np.hstack([np.ones((10, 1), dtype=int), np.eye(10, 1, dtype=int)]),
            ("x0", "x1"),
            ("always_on", "rare"),
        )
        weights, bias, constant = fit_cell(
            ds, OversampleConfig(seed=1, mode="none"), TrainConfig(seed=1, epochs=5)
        )
        assert constant == [0]
        assert (predict(weights[0], bias[0], ds.features) == 1).all()


class TestLockstep:
    @pytest.mark.parametrize("batch_size", [1, 7, 32, 500])
    @pytest.mark.parametrize("reg_c", [None, 0.05])
    def test_agrees_with_reference_loop(self, batch_size, reg_c):
        # problems of mixed sizes over one shared matrix: most sizes leave a
        # partial last batch, and batch_size 500 exceeds every row count.
        # reg_c None is the default; 0.05 regularizes 20 times as strongly
        rng = np.random.default_rng(batch_size)
        for d in (1, 2, 5):
            X = rng.normal(size=(400, d)) * rng.uniform(0.1, 10, d)
            sizes = rng.integers(3, 200, size=6)
            rows = [rng.choice(400, size=k, replace=False) for k in sizes]
            targets = [np.resize([0, 1, 1], k) for k in sizes]
            seeds = list(rng.integers(1 << 30, size=6))
            cfg = TrainConfig(epochs=9, batch_size=batch_size, reg_c=reg_c or TrainConfig.reg_c)
            weights, bias, constant = fit_lockstep(X, rows, targets, seeds, cfg)
            assert constant == []
            for w_k, b_k, r, y, seed in zip(weights, bias, rows, targets, seeds):
                w, b = reference_fit(X[r], y, replace(cfg, seed=int(seed)))
                assert np.abs(w_k - w).max() <= 1e-12 * (1 + np.abs(w).max())
                assert abs(b_k - b) <= 1e-12 * (1 + abs(b))

    def test_fit_alone_equals_fit_in_group(self):
        # at d = 1 einsum sums each minibatch in SIMD lanes, so a model's
        # bits would depend on how wide the run pads its minibatches; the
        # last six problems are shorter than one (here a 13-row problem
        # padded to its own size instead of batch_size gets other bits)
        for d in (1, 2, 3, 60):
            rng = np.random.default_rng(3)
            X = rng.normal(size=(300, d))
            sizes = (250, 41, 120, 33, 9, 20, 13, 25, 7, 30)
            rows = [rng.choice(300, size=k, replace=False) for k in sizes]
            targets = [(X[r, 0] + rng.normal(0, 0.5, r.size) > 0).astype(int) for r in rows]
            seeds = range(1, len(sizes) + 1)
            cfg = TrainConfig(epochs=12)
            weights, bias, constant = fit_lockstep(X, rows, targets, seeds, cfg)
            assert constant == []
            for k, (r, y, seed) in enumerate(zip(rows, targets, seeds)):
                w, b = fit_one(X[r], y, replace(cfg, seed=seed))
                assert np.array_equal(w, weights[k])
                assert b == bias[k]

    def test_single_class_problem_gets_constant_row(self):
        X = np.arange(20.0).reshape(10, 2)
        rows = [np.arange(10), np.arange(5), np.arange(3)]
        targets = [np.resize([0, 1], 10), np.ones(5, dtype=int), np.zeros(3, dtype=int)]
        weights, bias, constant = fit_lockstep(
            X, rows, targets, [0, 1, 2], TrainConfig(epochs=2)
        )
        assert constant == [1, 2]
        assert weights.shape == (3, 2)
        assert bias[1] == 1.0 and not weights[1].any()
        assert bias[2] == -1.0 and not weights[2].any()

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_row_index_out_of_range_is_rejected(self, bad):
        rows = [np.array([0, 1, 2, bad])]
        with pytest.raises(TrainingError, match="out of range"):
            fit_lockstep(np.zeros((4, 2)), rows, [np.array([0, 1, 0, 1])], [0],
                         TrainConfig())

    def test_row_count_must_match_targets(self):
        with pytest.raises(ValueError, match="match"):
            fit_lockstep(np.zeros((4, 2)), [np.arange(4)], [np.array([0, 1, 0])], [0],
                         TrainConfig())
