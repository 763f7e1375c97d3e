import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uclso import experiment
from uclso.clustering import kmeans
from uclso.dataset import MultiLabelDataset, make_fold_plan
from uclso.experiment import FoldCell, MethodSpec, _score_cell, run_cv
from uclso.linear import (F32_MAX, REG_C_FLOOR, TrainConfig, TrainingError, fit_lockstep,
                          norm_limit)
from uclso.metrics import auc_label, confusion, f1_label
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
    return (X @ w + b > 0.0).astype(int)


def fit_cell(ds, os_cfg, train_cfg, assign=None):
    """Every label's model of one cell: each label's synthetic rows
    stacked after the base rows, one binary-relevance problem per label.
    Label l trains on the base rows and its own synthetic rows, which are
    all relevant, under a seed derived from (train_cfg.seed, l)."""
    augments = list(iter_augments(ds, os_cfg, assign))
    X = np.vstack([ds.features] + [aug.extra.points for aug in augments])
    rows, targets, seeds = [], [], []
    end = ds.n
    for l, aug in enumerate(augments):
        k = len(aug.extra)
        rows.append(np.concatenate([np.arange(ds.n), np.arange(end, end + k)]))
        targets.append(np.concatenate([ds.labels[:, l], np.ones(k, dtype=int)]))
        seeds.append(int(np.random.SeedSequence([train_cfg.seed, l]).generate_state(1)[0]))
        end += k
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

    def test_objective_decreases_with_more_epochs(self):
        X, y = blobs_2d(seed=7)
        short_cfg = TrainConfig(seed=1, epochs=2)
        long_cfg = TrainConfig(seed=1, epochs=60)
        short = objective(*fit_one(X, y, short_cfg), X, y, short_cfg)
        long = objective(*fit_one(X, y, long_cfg), X, y, long_cfg)
        assert long <= short + 1e-9


class TestScorePredict:
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

    def test_one_product_equals_each_labels_own_scores(self):
        # label a's model is constant (zero weights: every score ties at its
        # bias), test row 2 scores exactly 0 under label b's and label c has
        # one class among the test rows, so its AUC is undefined
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0], [3.0, 1.0], [4.0, 0.0],
                      [1.0, 2.0]])
        labels = np.array([[0, 0, 0], [1, 0, 1], [0, 1, 1], [1, 1, 1], [0, 1, 1],
                           [1, 0, 0]])
        ds = MultiLabelDataset(X, labels, ("x0", "x1"), ("a", "b", "c"))
        weights = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, -1.0]])
        bias = np.array([-1.0, -2.0, 0.25])
        test_idx = np.array([4, 1, 2, 3])
        cell = _score_cell(ds, test_idx, weights, bias, ("a",), 1, 0)

        f1s, aucs = [], []
        for w, b, col in zip(weights, bias, labels[test_idx].T):
            s = X[test_idx] @ w + b
            f1s.append(f1_label(confusion(col, (s > 0.0).astype(int))))
            aucs.append(auc_label(s, col) if 0 < col.sum() < col.size else math.nan)
        reference = FoldCell(1, 0, tuple(f1s), tuple(aucs), ("a",))
        assert repr(cell) == repr(reference)
        assert cell.f1 == (0.0, 0.8, 6 / 7)
        assert cell.auc[:2] == (0.5, 1.0) and math.isnan(cell.auc[2])


class TestBrFit:
    def test_single_label_reduces_to_train_linear(self, fig1_toy):
        sub = fig1_toy.subset(np.arange(200))
        cfg = OversampleConfig(seed=1, mode="none")
        weights, bias, constant = fit_cell(sub, cfg, TrainConfig(seed=3, epochs=10))
        assert weights.shape == (sub.q, sub.d) and bias.shape == (sub.q,)
        assert constant == []

    def test_none_mode_matches_plain_training_data(self, fig1_toy, monkeypatch):
        cfg = OversampleConfig(seed=1, mode="none")
        for aug in iter_augments(fig1_toy, cfg):
            assert len(aug.extra) == 0
            assert aug.base is fig1_toy
        # run_cv's problems: each label of a cell trains on exactly the
        # cell's training rows, rounded to the float32 group matrix, with
        # the label's own column as targets
        runs = []

        def spy(X, rows, targets, seeds, train_cfg):
            runs.append((X, rows, targets))
            return fit_lockstep(X, rows, targets, seeds, train_cfg)

        monkeypatch.setattr(experiment, "fit_lockstep", spy)
        plan = make_fold_plan(fig1_toy.n, 1, 2, seed=0)
        run_cv(fig1_toy, [MethodSpec("none", cfg)], plan, TrainConfig(epochs=1))
        ((X, rows, targets),) = runs
        q, start = fig1_toy.q, 0
        for fold in range(2):
            train_idx, _ = plan.train_test(0, fold)
            for l in range(q):
                r = rows[fold * q + l]
                assert np.array_equal(r, np.arange(start, start + train_idx.size))
                assert np.array_equal(X[r], fig1_toy.features[train_idx].astype(np.float32))
                assert np.array_equal(targets[fold * q + l], fig1_toy.labels[train_idx, l])
            start += train_idx.size
        assert len(X) == start

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


@st.composite
def lockstep_problems(draw):
    """(X, rows, targets, seeds, cfg): up to 8 problems over one matrix of
    three blocks. Noisy problems draw rows of a Gaussian block. Separable
    problems draw rows at +-scale * v, labelled by their sign, so most of
    their steps after the first have no violator. Origin problems draw
    all-zero rows of alternating classes, where every row violates: a
    minibatch with as many rows of each class sums its violators to 0, so
    a bias can stay at 0 or return to it."""
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    noisy = rng.normal(size=(60, d))
    sign = np.resize([1.0, -1.0], 60)
    scale = 10.0**draw(st.floats(0, 2)) * (1 + rng.random(60))
    separable = np.outer(sign * scale, rng.normal(size=d) + 0.1)
    X = np.vstack([noisy, separable, np.zeros((60, d))]).astype(dtype)
    rows, targets = [], []
    for kind in draw(st.lists(st.sampled_from(["noisy", "separable", "origin"]),
                              min_size=1, max_size=8)):
        k = draw(st.integers(2, 60))
        pick = rng.choice(60, size=k, replace=False)
        if kind == "noisy":
            rows.append(pick)
            targets.append((noisy[pick, 0] + rng.normal(0, 0.5, k) > 0).astype(int))
        elif kind == "separable":
            rows.append(60 + pick)
            targets.append((sign[pick] > 0).astype(int))
        else:
            rows.append(120 + pick)
            targets.append(np.resize([0, 1], k))
    seeds = draw(st.lists(st.integers(0, 2**31), min_size=len(rows), max_size=len(rows)))
    cfg = TrainConfig(epochs=draw(st.integers(1, 6)),
                      batch_size=draw(st.sampled_from([4, 32, 64])))
    return X, rows, targets, seeds, cfg


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
        # each model's hinge sum is its own gemv over its own batch_size
        # rows, padded when its minibatch is shorter, so a model's bits must
        # not depend on the models that share its run. The last six problems
        # are shorter than one minibatch of 32; OpenBLAS takes a different
        # gemv path at 4, 32 and 64 rows, so each batch size is checked
        for batch_size in (4, 32, 64):
            for dtype in (np.float64, np.float32):
                for d in (1, 2, 3, 60):
                    rng = np.random.default_rng(3)
                    X = rng.normal(size=(300, d)).astype(dtype)
                    sizes = (250, 41, 120, 33, 9, 20, 13, 25, 7, 30)
                    rows = [rng.choice(300, size=k, replace=False) for k in sizes]
                    targets = [(X[r, 0] + rng.normal(0, 0.5, r.size) > 0).astype(int)
                               for r in rows]
                    seeds = range(1, len(sizes) + 1)
                    cfg = TrainConfig(epochs=12, batch_size=batch_size)
                    weights, bias, constant = fit_lockstep(X, rows, targets, seeds, cfg)
                    assert constant == []
                    for k, (r, y, seed) in enumerate(zip(rows, targets, seeds)):
                        w, b = fit_one(X[r], y, replace(cfg, seed=seed))
                        assert np.array_equal(w, weights[k])
                        assert b == bias[k]

    @given(problems=lockstep_problems())
    @settings(max_examples=100, deadline=None)
    def test_bias_is_never_minus_zero_and_fits_alone_as_in_group(self, problems):
        # the fused update leaves a bias as it is when its violator sum is
        # +-0 only because the bias is never -0; and every model's bits
        # must not depend on the models that share its run
        X, rows, targets, seeds, cfg = problems
        weights, bias, _ = fit_lockstep(X, rows, targets, seeds, cfg)
        assert not np.signbit(bias[bias == 0]).any()
        for k, (r, y, seed) in enumerate(zip(rows, targets, seeds)):
            w, b = fit_one(X[r], y, replace(cfg, seed=seed))
            assert w.tobytes() == weights[k].tobytes()
            assert np.float64(b).tobytes() == bias[k].tobytes()

    def test_float32_matrix_trains_in_float32(self):
        # the weights come back as float64, every one of them a float32
        # value; they are not the float64 run's, but close to them
        rng = np.random.default_rng(8)
        X = rng.normal(size=(400, 5)) * rng.uniform(0.1, 10, 5)
        rows = [rng.choice(400, size=k, replace=False) for k in (300, 90, 31)]
        targets = [(X[r, 1] > 0).astype(int) for r in rows]
        cfg = TrainConfig(epochs=9)
        w64, b64, _ = fit_lockstep(X, rows, targets, [1, 2, 3], cfg)
        w32, b32, _ = fit_lockstep(X.astype(np.float32), rows, targets, [1, 2, 3], cfg)
        assert w32.dtype == b32.dtype == np.float64
        assert np.array_equal(w32.astype(np.float32), w32)
        assert np.array_equal(b32.astype(np.float32), b32)
        assert not np.array_equal(w32, w64)
        assert np.abs(w32 - w64).max() <= 1e-4 * np.abs(w64).max()
        assert np.abs(b32 - b64).max() <= 1e-4 * (1 + np.abs(b64).max())

    def test_other_dtypes_train_in_float64(self):
        # an integer or float16 matrix is converted to float64, as a list is
        X = np.arange(40).reshape(20, 2) % 7 - 3
        rows, targets = [np.arange(20)], [(X[:, 0] > 0).astype(int)]
        cfg = TrainConfig(epochs=5)
        want = fit_lockstep(X.astype(np.float64), rows, targets, [4], cfg)
        for same in (X, X.astype(np.float16), X.tolist()):
            got = fit_lockstep(same, rows, targets, [4], cfg)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

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


class TestNormLimit:
    @pytest.mark.seeds
    @given(log_r=st.floats(-2, 37.5), log_c=st.floats(0, 300) | st.none(),
           epochs=st.integers(1, 3), batch_size=st.integers(1, 64), n=st.integers(2, 48),
           d=st.integers(1, 4), aligned=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_fit_at_the_limit_stays_in_range(self, log_r, log_c, epochs, batch_size, n, d,
                                             aligned, seed):
        # every row at the largest norm the rule allows. With no log_c,
        # reg_c is the largest that allows norm 10**log_r, down to its
        # floor, and reg_c * n bounds the weights; with log_c, reg_c * n is
        # 10**log_c times the T steps, which bound the weights instead.
        # Aligned rows are +-v, labelled by their sign, so that every row
        # pushes w along v and the margins reach the rule's bound. Nothing
        # may overflow or turn invalid in float32, not even the cast of the
        # features
        steps = epochs * -(-n // batch_size)
        if log_c is None:
            reg_c = max(REG_C_FLOOR, (F32_MAX / 4 - steps) / (10.0**(2 * log_r) * n))
        else:
            reg_c = steps * 10.0**log_c / n
        cfg = TrainConfig(reg_c=reg_c, epochs=epochs, batch_size=batch_size)
        rng = np.random.default_rng(seed)
        y = rng.permutation(np.arange(n) % 2)
        X = rng.normal(size=(n, d))
        if aligned:
            X = np.outer(2 * y - 1, rng.normal(size=d)) + 1e-3 * X
        X *= norm_limit(cfg, n) / np.sqrt(np.einsum("ij,ij->i", X, X))[:, None]
        rows = [np.arange(n), rng.choice(n, size=rng.integers(2, n + 1), replace=False)]
        targets = [y, y[rows[1]]]
        targets[1][:2] = (0, 1)
        with np.errstate(over="raise", invalid="raise"):
            weights, bias, _ = fit_lockstep(X.astype(np.float32), rows, targets, [1, 2], cfg)
        assert np.isfinite(weights).all() and np.isfinite(bias).all()

    def test_reg_c_floor_keeps_lambda_in_float32(self):
        # lambda = 1 / (reg_c * n) <= 1 / reg_c, whose float32 cast is finite at the floor
        assert np.isfinite(np.float32(1 / REG_C_FLOOR))
        TrainConfig(reg_c=REG_C_FLOOR)
        with pytest.raises(TrainingError) as info:
            TrainConfig(reg_c=1e-45)
        assert str(info.value) == (
            "reg_c must be at least 1.175494420887215e-38 (4 / float32's largest value), "
            "got 1e-45"
        )
