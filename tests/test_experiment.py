import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uclso import experiment
from uclso.clustering import ClusteringError, kmeans
from uclso.dataset import DatasetError, FoldPlan, MultiLabelDataset, make_fold_plan
from uclso.experiment import (
    FoldCell,
    MethodSpec,
    MetricReport,
    _cell_seed,
    auc_defined,
    check_plan,
    run_cv,
)
from uclso.linear import (
    F32_MAX,
    REG_C_FLOOR,
    TrainConfig,
    TrainingError,
    fit_lockstep,
    norm_limit,
)
from uclso.oversample import (
    LabelUnusableError,
    OversampleConfig,
    OversampleError,
    augment,
    iter_augments,
    label_draws,
    synthetic_count,
)


def small_ds(seed=0, n=120):
    rng = np.random.default_rng(seed)
    X = np.vstack(
        [rng.normal((0, 0), 1.0, (n // 2, 2)), rng.normal((4, 1), 1.0, (n // 2, 2))]
    )
    labels = np.zeros((n, 2), dtype=int)
    labels[n // 2:, 0] = (rng.random(n // 2) < 0.4).astype(int)
    labels[:, 1] = (rng.random(n) < 0.5).astype(int)
    return MultiLabelDataset(X, labels, ("x0", "x1"), ("rare", "even"))


FAST = TrainConfig(seed=5, epochs=8)


def methods(*names, seed=3):
    return [MethodSpec(n, OversampleConfig(k_clusters=3, seed=seed, mode=n)) for n in names]


NOT_PARTITIONED = "its folds do not partition the dataset's 120 rows"

MESSAGE = ("row {row} has norm {norm!r}, past {limit!r}, the largest that float32 "
           "training keeps in range: rescale the features, for example by scale: minmax")


class TestTrainingRange:
    def test_norm_past_the_limit_is_rejected_before_any_cell(self, monkeypatch):
        # 1×2 CV of 120 rows: models of at most 2 * 60 rows, 8 epochs of
        # ceil(120 / 32) steps, whose T = 32 bounds the weights before
        # reg_c * 120 does. Row 9 is within the limit, row 7 past it and
        # named, before anything is clustered or trained
        ds = small_ds()
        features = ds.features.copy()
        features[9], features[7] = (8e17, 0.0), (0.0, -1e19)
        big = replace(ds, features=features)
        calls = []
        for name in ("kmeans", "fit_lockstep"):
            monkeypatch.setattr(experiment, name, lambda *a, name=name, **k: calls.append(name))
        with pytest.raises(DatasetError) as err:
            run_cv(big, methods("none", "uclso"), make_fold_plan(ds.n, 1, 2, seed=1), FAST)
        assert str(err.value) == MESSAGE.format(
            row=7, norm=1e19, limit=math.sqrt((F32_MAX / 4 - 8 * 4) / (8 * 4)))
        assert calls == []

    @pytest.mark.parametrize("cfg, limit", [
        # the T term: 4e37 steps (each model of 2 * 3 rows takes one a
        # epoch) leave F / 4 - 4e37 to R^2 * reg_c * 6
        (TrainConfig(epochs=4 * 10**37), math.sqrt((F32_MAX / 4 - 4e37) / 6)),
        # a large reg_c: the 3 steps, not reg_c * 6, bound the weights, so
        # R^2 * 3 + 3 <= F / 4
        (TrainConfig(reg_c=1e30, epochs=3), math.sqrt((F32_MAX / 4 - 3) / 3)),
        # reg_c at its floor: the minibatch hinge sum, B R <= F / 4, binds
        (TrainConfig(reg_c=REG_C_FLOOR, batch_size=8), F32_MAX / 4 / 8),
    ], ids=["steps", "weights_by_steps", "batch"])
    def test_limit_on_a_small_plan(self, cfg, limit):
        # 5 rows in 2 folds of 3 and 2: the largest training fold has n = 3
        # rows, so a model trains on at most 2n = 6. A row at the limit
        # passes; one float above it is named with the limit
        def ds(norm):
            features = np.zeros((5, 2))
            features[3, 1] = norm
            return MultiLabelDataset(features, np.array([[0], [1], [0], [1], [0]]),
                                     ("x0", "x1"), ("l",))

        plan = make_fold_plan(5, 1, 2, seed=1)
        check_plan(ds(limit), methods("none"), plan, cfg)
        above = math.nextafter(limit, math.inf)
        with pytest.raises(DatasetError) as err:
            check_plan(ds(above), methods("none"), plan, cfg)
        assert str(err.value) == MESSAGE.format(row=3, norm=above, limit=limit)


class TestRunCv:
    def test_report_shape_and_cells(self):
        ds = small_ds()
        plan = make_fold_plan(ds.n, 2, 2, seed=1)
        reports = run_cv(ds, methods("none", "uclso"), plan, FAST)
        assert set(reports) == {"none", "uclso"}
        for rep in reports.values():
            assert len(rep.cells) == 4
            assert [(c.rep, c.fold) for c in rep.cells] == [
                (0, 0), (0, 1), (1, 0), (1, 1)
            ]
            for c in rep.cells:
                assert 0.0 <= c.macro_f1 <= 1.0

    def test_method_order_isolation(self):
        ds = small_ds()
        plan = make_fold_plan(ds.n, 2, 2, seed=1)
        a = run_cv(ds, methods("none", "smote", "uclso"), plan, FAST)
        b = run_cv(ds, methods("uclso", "none", "smote"), plan, FAST)
        for name in ("none", "smote", "uclso"):
            assert a[name].cells == b[name].cells

    def test_threads_do_not_change_results(self):
        ds = small_ds()
        plan = make_fold_plan(ds.n, 2, 2, seed=1)
        a = run_cv(ds, methods("smote", "uclso"), plan, FAST, threads=1)
        b = run_cv(ds, methods("smote", "uclso"), plan, FAST, threads=4)
        for name in a:
            assert a[name].cells == b[name].cells

    def test_no_leakage_from_test_rows(self, monkeypatch):
        # mutating every test row of a cell changes none of its models:
        # clustering, synthesis and training see only training rows
        ds = small_ds()
        plan = make_fold_plan(ds.n, 1, 2, seed=2)
        _, test_idx = plan.train_test(0, 0)
        method = methods("uclso")[0]
        corrupted = ds.features.copy()
        corrupted[test_idx] += 1000.0
        ds2 = MultiLabelDataset(
            corrupted, ds.labels.copy(), ds.feature_names, ds.label_names
        )
        fitted = []  # each cell fits alone: cell (0, 0)'s models come first

        def spy(*args, **kwargs):
            result = fit_lockstep(*args, **kwargs)
            fitted.append(result[:2])  # weights, bias
            return result

        monkeypatch.setattr(experiment, "fit_lockstep", spy)
        monkeypatch.setattr(experiment, "GROUP_ELEMENTS", 1)
        cell = run_cv(ds, [method], plan, FAST)["uclso"].cells[0]
        run_cv(ds2, [method], plan, FAST)
        (ref_w, ref_b), (w, b) = fitted[0], fitted[2]
        assert len(fitted) == 4 and len(ref_w) == ds.q
        assert np.array_equal(ref_w, w)
        assert np.array_equal(ref_b, b)
        assert 0.0 <= cell.macro_f1 <= 1.0

    def test_single_class_training_label_flagged(self):
        rng = np.random.default_rng(0)
        labels = np.zeros((40, 2), dtype=int)
        labels[0, 0] = 1  # one positive: some training folds are single-class
        labels[:20, 1] = 1
        ds = MultiLabelDataset(
            rng.normal(size=(40, 2)), labels, ("x0", "x1"), ("lonely", "even")
        )
        plan = make_fold_plan(ds.n, 2, 2, seed=0)
        reports = run_cv(ds, methods("none"), plan, FAST)
        flagged = [c.constant_labels for c in reports["none"].cells]
        assert any("lonely" in f for f in flagged)

    def test_auc_undefined_labels_excluded(self):
        rng = np.random.default_rng(0)
        labels = np.zeros((40, 2), dtype=int)
        labels[0, 0] = 1
        labels[:20, 1] = 1
        ds = MultiLabelDataset(
            rng.normal(size=(40, 2)), labels, ("x0", "x1"), ("lonely", "even")
        )
        plan = make_fold_plan(ds.n, 1, 2, seed=0)
        reports = run_cv(ds, methods("none"), plan, FAST)
        for cell in reports["none"].cells:
            # "lonely" has no positives in at least one test fold
            if not cell.auc_defined[0]:
                assert np.isnan(cell.auc[0])
            assert cell.auc_defined[1]

    def test_summary_fields(self):
        ds = small_ds()
        plan = make_fold_plan(ds.n, 2, 2, seed=1)
        reports = run_cv(ds, methods("none"), plan, FAST)
        s = reports["none"].summary()
        assert s["cells"] == 4
        assert 0.0 <= s["macro_f1_mean"] <= 1.0
        assert len(s["macro_f1_per_rep"]) == 2
        flat = np.mean(list(s["macro_f1_per_rep"].values()))
        # per-rep means of equal-size folds average back to the flat mean
        assert flat == pytest.approx(s["macro_f1_mean"])

    def test_k_past_a_training_fold_fails_before_any_cell(self, monkeypatch):
        # 40 rows in 1×2 CV: training folds of 20 rows, fewer than uclso's
        # 25 clusters. With one unit a group, none's and smote's cells
        # would each be a lockstep run before uclso's k-means fails
        ds = small_ds(n=40)
        chosen = [MethodSpec(n, OversampleConfig(k_clusters=25, seed=3, mode=n)) for n in ALL]
        monkeypatch.setattr(experiment, "GROUP_ELEMENTS", 1)
        with mock.patch.object(experiment, "kmeans", wraps=kmeans) as clustered, \
                mock.patch.object(experiment, "fit_lockstep", wraps=fit_lockstep) as fit, \
                pytest.raises(ClusteringError, match=r"^k=25 must be in \[1, 20\]$"):
            run_cv(ds, chosen, make_fold_plan(ds.n, 1, 2, seed=1), FAST)
        assert clustered.call_count == fit.call_count == 0

    @pytest.mark.parametrize("plan, message", [
        # 20 of the 120 rows in no fold; rows 120 to 139 not in the data
        (make_fold_plan(100, 1, 2, seed=1), "repetition 0: " + NOT_PARTITIONED),
        (make_fold_plan(140, 1, 2, seed=1), "repetition 0: " + NOT_PARTITIONED),
        # a second repetition that tests row 0 twice and row 119 never
        (FoldPlan(make_fold_plan(120, 2, 2, seed=1).assignments[:1]
                  + ((np.arange(60), np.append(np.arange(60, 119), 0)),)),
         "repetition 1: " + NOT_PARTITIONED),
        # degenerate plans: no cell at all, a second repetition whose one
        # fold has no training rows, and a fold that tests nothing
        (FoldPlan(()), "has no repetition"),
        (FoldPlan(make_fold_plan(120, 1, 2, seed=1).assignments + ((np.arange(120),),)),
         "repetition 1: need at least 2 folds, got 1"),
        (FoldPlan(((np.arange(60), np.array([], dtype=int), np.arange(60, 120)),)),
         "repetition 0: fold 1 is empty"),
    ], ids=["fewer_rows", "more_rows", "row_twice", "no_repetition", "one_fold", "empty_fold"])
    def test_plan_not_partitioning_the_rows_fails_before_any_cell(self, plan, message):
        ds = small_ds()
        with mock.patch.object(experiment, "kmeans", wraps=kmeans) as clustered, \
                mock.patch.object(experiment, "fit_lockstep", wraps=fit_lockstep) as fit, \
                pytest.raises(ValueError) as err:
            run_cv(ds, methods("none", "uclso"), plan, FAST)
        assert type(err.value) is ValueError and str(err.value) == "fold plan " + message
        assert clustered.call_count == fit.call_count == 0

    def test_hand_built_plan_scores_each_of_its_folds(self):
        # a plan is its folds: three of 40 rows give three cells a method
        ds = small_ds()
        plan = FoldPlan((tuple(np.arange(f, 120, 3) for f in range(3)),))
        for report in run_cv(ds, methods("none", "uclso"), plan, FAST).values():
            assert [(c.rep, c.fold) for c in report.cells] == [(0, 0), (0, 1), (0, 2)]

    def test_duplicate_method_names_rejected(self):
        ds = small_ds()
        plan = make_fold_plan(ds.n, 1, 2, seed=1)
        with pytest.raises(ValueError, match="duplicate"):
            run_cv(ds, methods("none", "none"), plan, FAST)


def lone_point_ds():
    """Minority points in one blob plus a far-off minority point that
    k-means gives a cluster of its own: a pool of one point, which uclso
    fills by duplicating it."""
    rng = np.random.default_rng(4)
    X = np.vstack([rng.normal((0, 0), 1.0, (60, 2)), rng.normal((4, 1), 0.5, (20, 2)),
                   [[60.0, 60.0], [61.0, 59.0]]])
    labels = np.zeros((82, 2), dtype=int)
    labels[60:80, 0] = 1
    labels[80:, 0] = 1
    labels[::3, 1] = 1
    return MultiLabelDataset(X, labels, ("x0", "x1"), ("blob", "thirds"))


class TestMethodWideFit:
    @pytest.mark.parametrize("name", ["none", "smote", "uclso"])
    def test_run_cv_cells_equal_evaluate_cell(self, name, monkeypatch):
        # every cell of one method fit in one group equals the cell fit alone
        ds = lone_point_ds()
        plan = make_fold_plan(ds.n, 2, 2, seed=3)
        method = methods(name)[0]
        report = run_cv(ds, [method], plan, FAST)[name]
        monkeypatch.setattr(experiment, "GROUP_ELEMENTS", 1)
        alone = run_cv(ds, [method], plan, FAST)[name]
        assert len(report.cells) == 4
        assert alone.cells == report.cells

    def test_some_uclso_cell_has_a_pool_of_one(self):
        # the case above covers a pool of one only if some training fold
        # holds exactly one of the far-off points in a cluster of its own
        ds = lone_point_ds()
        plan = make_fold_plan(ds.n, 2, 2, seed=3)
        os_cfg = methods("uclso")[0].oversample
        lone = 0
        for rep in range(2):
            for fold in range(2):
                train_idx, _ = plan.train_test(rep, fold)
                train = ds.subset(train_idx)
                seed = _cell_seed(os_cfg.seed, rep, fold)
                assign = kmeans(train.features, os_cfg.k_clusters, seed=seed)
                pools = np.bincount(assign.assignment[train.labels[:, 0] == 1],
                                    minlength=assign.k)
                lone += int((pools == 1).any())
        assert lone > 0

    def test_models_bit_equal_alone_per_cell_and_per_method(self, monkeypatch):
        ds = small_ds()
        plan = make_fold_plan(ds.n, 2, 2, seed=1)
        method = methods("uclso")[0]
        fitted = []

        def spy(*args, **kwargs):
            result = fit_lockstep(*args, **kwargs)
            fitted.append((args, result[:2]))  # (X, rows, targets, seeds, cfg), weights, bias
            return result

        monkeypatch.setattr(experiment, "fit_lockstep", spy)
        run_cv(ds, [method], plan, FAST)
        (((X, rows, targets, seeds, _), (group_w, group_b)),) = fitted
        assert len(group_w) == 4 * ds.q
        for c, (rep, fold) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
            train_idx, _ = plan.train_test(rep, fold)
            train = ds.subset(train_idx)
            os_cfg = replace(method.oversample, seed=_cell_seed(method.oversample.seed, rep, fold))
            assign = kmeans(train.features, 3, seed=os_cfg.seed)
            augments = list(iter_augments(train, os_cfg, assign))
            cell = slice(c * ds.q, (c + 1) * ds.q)
            # the cell's problems fit together, apart from the other cells'
            cell_w, cell_b, _ = fit_lockstep(X, rows[cell], targets[cell], seeds[cell], FAST)
            cell_seed = _cell_seed(FAST.seed, rep, fold)
            for l in range(ds.q):
                seed = int(np.random.SeedSequence([cell_seed, l]).generate_state(1)[0])
                # the label's own augmented set, built here: base rows,
                # then its points, which are all relevant, each rounded
                # once to float32 as in the group matrix
                points = augments[l].extra.points
                y = np.concatenate([train.labels[:, l], np.ones(len(points), dtype=int)])
                (alone_w,), (alone_b,), _ = fit_lockstep(
                    np.vstack([train.features, points]).astype(np.float32),
                    [np.arange(len(y))], [y], [seed], FAST,
                )
                k = c * ds.q + l
                assert seeds[k] == seed
                for w, b in ((cell_w[l], cell_b[l]), (group_w[k], group_b[k])):
                    assert np.array_equal(alone_w, w)
                    assert alone_b == b

    @pytest.mark.parametrize("split", [False, True], ids=["shared", "split"])
    @pytest.mark.parametrize("mode", ["smote", "uclso"])
    def test_group_rows_equal_iter_augments_label_by_label(self, monkeypatch, mode, split):
        # run_cv lays each label's points into the group matrix; the CLI
        # draws them with iter_augments. They are the same points, each
        # rounded once to the float32 matrix, whether a cell's units share
        # its base rows in one group or, at a budget of one cell's rows,
        # fall into two groups that each store them
        ds = lone_point_ds()
        plan = make_fold_plan(ds.n, 2, 2, seed=3)
        runs = []

        def spy(X, rows, targets, seeds, cfg):
            runs.append((X, rows, targets))
            return fit_lockstep(X, rows, targets, seeds, cfg)

        monkeypatch.setattr(experiment, "fit_lockstep", spy)
        if split:
            monkeypatch.setattr(experiment, "GROUP_ELEMENTS", (ds.d + ds.q) * (ds.n // 2))
        method = methods(mode)[0]
        run_cv(ds, methods("none") + [method], plan, FAST)
        assert len(runs) == (8 if split else 1)
        assert all(X.dtype == np.float32 for X, _, _ in runs)
        problems = [p for X, rows, targets in runs for p in zip([X] * len(rows), rows, targets)]
        checked = 0
        for c, (rep, fold) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
            train = ds.subset(plan.train_test(rep, fold)[0])
            os_cfg = replace(method.oversample, seed=_cell_seed(method.oversample.seed, rep, fold))
            assign = kmeans(train.features, 3, seed=os_cfg.seed) if mode == "uclso" else None
            unit = problems[(2 * c + 1) * ds.q:(2 * c + 2) * ds.q]  # the method's, after none
            for l, (aug, (X, r, y)) in enumerate(zip(iter_augments(train, os_cfg, assign), unit)):
                assert np.array_equal(X[r[:train.n]], train.features.astype(np.float32))
                assert np.array_equal(y[:train.n], train.labels[:, l])
                assert X[r[train.n:]].tobytes() == aug.extra.points.astype(np.float32).tobytes()
                assert (y[train.n:] == 1).all()
                checked += len(aug.extra)
        assert checked > 0

    @pytest.mark.parametrize("name", ["none", "uclso"])
    def test_group_size_does_not_change_cells(self, monkeypatch, name):
        ds = small_ds()
        plan = make_fold_plan(ds.n, 2, 2, seed=1)
        method = methods(name)[0]
        groups = []  # (models, matrix rows) of each lockstep run

        def spy(*args, **kwargs):
            groups.append((len(args[1]), args[0].shape[0]))
            return fit_lockstep(*args, **kwargs)

        def cells(elements):
            monkeypatch.setattr(experiment, "GROUP_ELEMENTS", elements)
            groups.clear()
            result = run_cv(ds, [method], plan, FAST)[name].cells
            assert sum(models for models, _ in groups) == 4 * ds.q
            return result, len(groups)

        monkeypatch.setattr(experiment, "fit_lockstep", spy)
        whole, count = cells(experiment.GROUP_ELEMENTS)
        assert count == 1
        alone, count = cells(1)
        assert count == 4 and alone == whole
        # a budget of the first two cells' rows: a group of two, then the rest
        rows = [r for _, r in groups]
        pairs, count = cells((ds.d + ds.q) * (rows[0] + rows[1]))
        assert 1 < count < 4 and pairs == whole

def same_cells(a, b):
    """Whether two sequences of FoldCells are bit-equal field by field. A
    FoldCell with an undefined AUC never equals another under ==, since
    nan != nan; repr round-trips every float, so equal reprs are equal bits
    with nan equal to nan."""
    return repr(tuple(a)) == repr(tuple(b))


def tiny_ds(d, seed=0, n=44):
    """Training folds of 22 rows, fewer than batch_size: the none method's
    problems are shorter than a minibatch and the augmented ones longer."""
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(0.0, 1.0, (n - 12, d)), rng.normal(2.5, 0.7, (12, d))])
    labels = np.zeros((n, 2), dtype=int)
    labels[n - 12:, 0] = 1
    labels[:, 1] = (rng.random(n) < 0.4).astype(int)
    names = tuple(f"x{i}" for i in range(d))
    return MultiLabelDataset(X, labels, names, ("rare", "even"))


ALL = ("none", "smote", "uclso")


class TestCrossMethodGroups:
    def fits(self, monkeypatch):
        """Spy on fit_lockstep: the (matrix, rows, weights, bias) of each run."""
        runs = []

        def spy(X, rows, targets, seeds, cfg):
            result = fit_lockstep(X, rows, targets, seeds, cfg)
            runs.append((X, rows, result[0], result[1]))
            return result

        monkeypatch.setattr(experiment, "fit_lockstep", spy)
        return runs

    def test_three_methods_are_one_lockstep_run(self, monkeypatch):
        runs = self.fits(monkeypatch)
        ds = small_ds()
        plan = make_fold_plan(ds.n, 2, 2, seed=1)
        run_cv(ds, methods(*ALL), plan, FAST)
        assert len(runs) == 1
        assert len(runs[0][1]) == 4 * len(ALL) * ds.q

    @pytest.mark.parametrize("ds", [small_ds(), tiny_ds(1), tiny_ds(2), tiny_ds(1, seed=4)],
                             ids=["small", "tiny_d1", "tiny_d2", "tiny_d1_seed4"])
    def test_each_method_equals_its_run_alone(self, monkeypatch, ds):
        # bit-equal models, so equal cells: the merged run, each method run
        # on its own, and every (cell, method) unit fit alone
        runs = self.fits(monkeypatch)
        plan = make_fold_plan(ds.n, 2, 2, seed=1)
        merged = run_cv(ds, methods(*ALL), plan, FAST)
        ((_, rows, merged_w, merged_b),) = runs
        if ds.n < 100:
            # the none method's problems are shorter than a minibatch,
            # an augmented one is longer
            sizes = [len(r) for r in rows]
            assert max(sizes[:ds.q]) < FAST.batch_size < max(sizes)
        runs.clear()
        monkeypatch.setattr(experiment, "GROUP_ELEMENTS", 1)
        units = run_cv(ds, methods(*ALL), plan, FAST)
        assert len(runs) == 4 * len(ALL)
        unit_runs = runs[:]
        for m, name in enumerate(ALL):
            alone = run_cv(ds, methods(name), plan, FAST)[name]
            assert same_cells(alone.cells, merged[name].cells)
            assert same_cells(units[name].cells, merged[name].cells)
            for c in range(4):
                u = c * len(ALL) + m  # units are cell-major, method-minor
                _, _, w, b = unit_runs[u]
                assert np.array_equal(w, merged_w[u * ds.q:(u + 1) * ds.q])
                assert np.array_equal(b, merged_b[u * ds.q:(u + 1) * ds.q])

    @pytest.mark.parametrize("budget", ["one_cell", "split_cells", "default"])
    def test_group_holds_each_cell_once_within_its_cap(self, monkeypatch, budget):
        # a group's matrix: the distinct cells' base rows once each, then
        # each unit's synthetic rows; it closes at the unit that takes it to
        # its cap, so it holds less than the cap plus that unit's rows
        runs = self.fits(monkeypatch)
        ds = small_ds()
        plan = make_fold_plan(ds.n, 2, 2, seed=1)
        n, q = ds.n // 2, ds.q  # rows of each training fold, labels
        if budget != "default":
            per = {"one_cell": n, "split_cells": n + 1}[budget]
            monkeypatch.setattr(experiment, "GROUP_ELEMENTS", (ds.d + q) * per)
        cap = experiment.GROUP_ELEMENTS // (ds.d + q)
        reports = run_cv(ds, methods(*ALL), plan, FAST)
        # each training fold as the float32 group matrix stores it
        folds = [ds.features[plan.train_test(rep, fold)[0]].astype(np.float32)
                 for rep in range(2) for fold in range(2)]
        cells_per_run = []
        for k, (X, rows, _, _) in enumerate(runs):
            # problems start with their cell's base rows: one block per cell
            starts = sorted({int(r[0]) for r in rows})
            cells = [next(c for c, f in enumerate(folds) if np.array_equal(X[s:s + n], f))
                     for s in starts]
            assert len(set(cells)) == len(cells)
            cells_per_run.append(cells)
            synthetic = sum(len(r) - n for r in rows)
            assert len(X) == n * len(starts) + synthetic
            last = rows[-q:]
            new_cell = all(int(r[0]) != int(last[0][0]) for r in rows[:-q])
            last_unit = n * new_cell + sum(len(r) - n for r in last)
            assert len(X) - last_unit < cap
            assert k == len(runs) - 1 or len(X) >= cap
        assert sum(len(rows) for _, rows, _, _ in runs) == 4 * len(ALL) * q
        if budget == "one_cell":
            # a cell's base rows fill the cap: every unit is a group alone
            assert len(runs) == 4 * len(ALL)
        if budget == "split_cells":
            # a cell's none unit and the next unit fill the cap: each cell's
            # units are split over two groups, each storing its base rows
            assert cells_per_run == [[c] for c in range(4) for _ in range(2)]
        if budget == "default":
            assert len(runs) == 1
        monkeypatch.setattr(experiment, "GROUP_ELEMENTS", 1)
        alone = run_cv(ds, methods(*ALL), plan, FAST)
        for name in ALL:
            assert same_cells(alone[name].cells, reports[name].cells)


@st.composite
def cv_problems(draw):
    """(ds, methods, plan, train_cfg) of a small run_cv: n from 8 to 60 rows
    of d from 1 to 4 features on a coarse grid, often duplicated; q from 1
    to 3 labels, each drawn bit by bit, with one relevant row (which some
    training fold lacks), or constant (every training fold single-class);
    1-2 repetitions of 2-3 folds; k from 1 to the largest training fold
    + 1, often near the training folds' sizes; m from 1 to 6, 1-2 epochs
    of batches of 1-8 rows, and any non-empty subset of the three
    methods."""
    n = draw(st.integers(8, 60))
    d = draw(st.integers(1, 4))
    q = draw(st.integers(1, 3))
    distinct = draw(st.integers(1, n))
    values = draw(st.lists(st.integers(-6, 6), min_size=distinct * d, max_size=distinct * d))
    pick = draw(st.lists(st.integers(0, distinct - 1), min_size=n, max_size=n))
    features = (np.array(values, dtype=float).reshape(distinct, d) / 4.0)[pick]
    labels = np.array(draw(st.lists(st.booleans(), min_size=n * q, max_size=n * q)),
                      dtype=int).reshape(n, q)
    for l in range(q):
        kind = draw(st.sampled_from(["bits", "bits", "one", "zeros", "ones"]))
        if kind == "one":
            labels[:, l] = 0
            labels[draw(st.integers(0, n - 1)), l] = 1
        elif kind != "bits":
            labels[:, l] = kind == "ones"
    ds = MultiLabelDataset(features, labels, tuple(f"x{j}" for j in range(d)),
                           tuple(f"l{l}" for l in range(q)))
    plan = make_fold_plan(n, draw(st.integers(1, 2)), draw(st.integers(2, 3)),
                          seed=draw(st.integers(0, 1000)))
    train_rows = [n - len(test) for folds in plan.assignments for test in folds]
    edge = st.integers(min(train_rows), max(train_rows) + 1)
    k, m = draw(st.integers(1, max(train_rows) + 1) | edge), draw(st.integers(1, 6))
    seed = draw(st.integers(0, 1000))
    names = draw(st.lists(st.sampled_from(ALL), min_size=1, max_size=3, unique=True))
    chosen = [MethodSpec(name, OversampleConfig(k, m, seed, name)) for name in names]
    train_cfg = TrainConfig(epochs=draw(st.integers(1, 2)),
                            batch_size=draw(st.integers(1, 8)), seed=draw(st.integers(0, 1000)))
    return ds, chosen, plan, train_cfg


@pytest.mark.seeds
class TestRunCvProperties:
    @given(problem=cv_problems())
    @settings(max_examples=60, deadline=None)
    def test_cells_keep_the_papers_invariants(self, problem):
        # every (cell, method, label) problem that run_cv hands to
        # fit_lockstep, checked against the cell's training rows, found
        # here from the plan's test fold alone
        ds, chosen, plan, train_cfg = problem
        k = chosen[0].oversample.k_clusters
        smallest = min(ds.n - len(test) for folds in plan.assignments for test in folds)
        if k > smallest and any(m.oversample.mode == "uclso" for m in chosen):
            # uclso cannot cluster some training fold: the run fails before
            # it clusters or trains anything
            with mock.patch.object(experiment, "kmeans", wraps=kmeans) as clustered, \
                    mock.patch.object(experiment, "fit_lockstep", wraps=fit_lockstep) as fit, \
                    pytest.raises(ClusteringError, match=rf"^k={k} must be in \[1, {smallest}\]$"):
                run_cv(ds, chosen, plan, train_cfg)
            assert clustered.call_count == fit.call_count == 0
            return
        problems = []

        def spy(X, rows, targets, seeds, cfg):
            problems.extend((X, r, y) for r, y in zip(rows, targets))
            return fit_lockstep(X, rows, targets, seeds, cfg)

        with mock.patch.object(experiment, "fit_lockstep", spy):
            reports = run_cv(ds, chosen, plan, train_cfg)
        cells = sum(len(folds) for folds in plan.assignments)
        assert len(problems) == cells * len(chosen) * ds.q
        problems = iter(problems)  # cell-major, then method, then label
        for rep, folds in enumerate(plan.assignments):
            for fold, test_idx in enumerate(folds):
                train = ds.subset(np.setdiff1d(np.arange(ds.n), test_idx))
                for method in chosen:
                    cfg = replace(method.oversample,
                                  seed=_cell_seed(method.oversample.seed, rep, fold))
                    assign = (kmeans(train.features, cfg.k_clusters, seed=cfg.seed)
                              if cfg.mode == "uclso" else None)
                    augments = iter_augments(train, cfg, assign)
                    for l, aug in enumerate(augments):
                        X, r, y = next(problems)
                        n_min = int(train.labels[:, l].sum())
                        n_maj = train.n - n_min
                        count = len(r) - train.n
                        # isolation: the base rows are the training rows,
                        # and every point is drawn from them alone
                        assert X[r[:train.n]].tobytes() == (
                            train.features.astype(np.float32).tobytes())
                        assert np.array_equal(y[:train.n], train.labels[:, l])
                        assert (y[train.n:] == 1).all()
                        assert count == synthetic_count(label_draws(train, cfg, assign, l))
                        if isinstance(aug, LabelUnusableError):
                            assert n_min == 0 and count == 0
                            continue
                        assert X[r[train.n:]].tobytes() == (
                            aug.extra.points.astype(np.float32).tobytes())
                        prov = aug.extra.provenance
                        assert prov.parent_u.max(initial=0) < train.n
                        assert prov.parent_v.max(initial=0) < train.n
                        # the quota formula, cluster by cluster
                        if cfg.mode == "none" or n_maj <= n_min:
                            assert count == 0
                        elif cfg.mode == "smote":
                            assert count == n_maj - n_min
                        else:
                            shares = np.bincount(assign.assignment[train.labels[:, l] == 1],
                                                 minlength=assign.k)
                            assert count == sum(-(-int(s) * (n_maj - n_min) // n_min)
                                                for s in shares)
                            assert n_maj <= n_min + count <= n_maj + cfg.k_clusters
                            cluster = assign.assignment
                            assert (cluster[prov.parent_u] == prov.cluster).all()
                            assert (cluster[prov.parent_v] == prov.cluster).all()
        assert next(problems, None) is None
        # one (cell, method) unit per lockstep run fits the same models
        with mock.patch.object(experiment, "GROUP_ELEMENTS", 1):
            alone = run_cv(ds, chosen, plan, train_cfg)
        for method in chosen:
            assert same_cells(alone[method.name].cells, reports[method.name].cells)


CORRUPTIONS = [
    "none", "other_rows", "no_repetition", "one_fold", "empty_fold", "no_method",
    "repeated_method", "train_config", "oversample_config", "k_past_fold", "norm_past_range",
]


@st.composite
def corrupted_cv_problems(draw, kind):
    """A cv_problems run_cv problem, made valid (k at most the smallest
    training fold), with the corruption `kind` (one of CORRUPTIONS, "none"
    for none): (run, error, cells), where run() builds what the corruption
    touches and calls run_cv on it, and error is the (type, message) it
    must raise or, uncorrupted, None with the (rep, fold) cells each report
    must hold."""
    ds, chosen, plan, train_cfg = draw(cv_problems())
    rows = [ds.n - len(test) for folds in plan.assignments for test in folds]
    k = min(chosen[0].oversample.k_clusters, min(rows))
    chosen = [replace(m, oversample=replace(m.oversample, k_clusters=k)) for m in chosen]
    reps = plan.assignments

    def run(ds=ds, chosen=chosen, plan=plan):
        return lambda: run_cv(ds, chosen, plan, train_cfg)

    if kind == "none":
        return run(), None, [(r, f) for r, folds in enumerate(reps) for f in range(len(folds))]
    if kind == "other_rows":
        # a plan of the same shape for a few rows more or fewer
        n = ds.n + draw(st.sampled_from([-2, -1, 1, 2]))
        other = make_fold_plan(n, len(reps), len(reps[0]), seed=draw(st.integers(0, 1000)))
        message = f"fold plan repetition 0: its folds do not partition the dataset's {ds.n} rows"
        return run(plan=other), (ValueError, message), None
    if kind == "no_repetition":
        return run(plan=FoldPlan(())), (ValueError, "fold plan has no repetition"), None
    if kind in ("one_fold", "empty_fold"):
        r = draw(st.integers(0, len(reps) - 1))
        if kind == "one_fold":
            folds = (np.arange(ds.n),)
            message = f"fold plan repetition {r}: need at least 2 folds, got 1"
        else:
            f = draw(st.integers(0, len(reps[r])))
            folds = reps[r][:f] + (np.array([], dtype=np.intp),) + reps[r][f:]
            message = f"fold plan repetition {r}: fold {f} is empty"
        return run(plan=FoldPlan(reps[:r] + (folds,) + reps[r + 1:])), (ValueError, message), None
    if kind == "no_method":
        return run(chosen=[]), (ValueError, "need at least one method"), None
    if kind == "repeated_method":
        twice = chosen + [draw(st.sampled_from(chosen))]
        return run(chosen=twice), (ValueError, "duplicate method names"), None
    if kind in ("train_config", "oversample_config"):
        # a field the config rejects when it is built, so run_cv never starts
        fields = {"train_config": ["epochs", "batch_size", "seed"],
                  "oversample_config": ["k_clusters", "m_neighbors", "seed"]}[kind]
        name = draw(st.sampled_from(fields))
        value = draw(st.sampled_from([2.5, True, -1] if name == "seed" else [2.5, True]))
        message = (f"seed must be >= 0, got {value}" if value == -1
                   else f"{name} must be an integer, got {value!r}")
        if kind == "train_config":
            return ((lambda: run_cv(ds, chosen, plan, replace(train_cfg, **{name: value}))),
                    (TrainingError, message), None)
        return ((lambda: run_cv(ds, [replace(m, oversample=replace(m.oversample, **{name: value}))
                                     for m in chosen], plan, train_cfg)),
                (OversampleError, message), None)
    if kind == "k_past_fold":
        # uclso, added if absent, asks for more clusters than some training fold's rows
        big = min(rows) + draw(st.integers(1, 3))
        chosen = [replace(m, oversample=replace(m.oversample, k_clusters=big)) for m in chosen]
        if all(m.name != "uclso" for m in chosen):
            chosen.append(MethodSpec("uclso", replace(chosen[0].oversample, mode="uclso")))
        return run(chosen=chosen), (ClusteringError, f"k={big} must be in [1, {min(rows)}]"), None
    # one row, alone on the first axis, at a norm just or well past the training range
    limit = norm_limit(train_cfg, 2 * max(rows))
    row = draw(st.integers(0, ds.n - 1))
    norm = draw(st.sampled_from([math.nextafter(limit, math.inf), 2 * limit]))
    features = ds.features.copy()
    features[row] = 0.0
    features[row, 0] = norm
    message = MESSAGE.format(row=row, norm=norm, limit=limit)
    return run(ds=replace(ds, features=features)), (DatasetError, message), None

@pytest.mark.seeds
class TestCorruptedRunCv:
    @pytest.mark.parametrize("kind", CORRUPTIONS)
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_corrupted_input_fails_before_any_compute(self, kind, data):
        # one corruption of a valid problem raises its documented error
        # before anything is clustered, drawn or trained; none runs to the end
        run, error, cells = data.draw(corrupted_cv_problems(kind))
        with mock.patch.object(experiment, "kmeans", wraps=kmeans) as clustered, \
                mock.patch.object(experiment, "augment", wraps=augment) as drawn, \
                mock.patch.object(experiment, "fit_lockstep", wraps=fit_lockstep) as fit:
            if error is None:
                for report in run().values():
                    assert [(c.rep, c.fold) for c in report.cells] == cells
                assert fit.call_count > 0
                return
            with pytest.raises(error[0]) as err:
                run()
        assert (type(err.value), str(err.value)) == error
        assert clustered.call_count == drawn.call_count == fit.call_count == 0


class TestMetricReportRows:
    def test_cells_table_reads_each_cell_once(self, monkeypatch):
        # the table leaves out every undefined AUC, and reads at most one
        # auc_defined per cell, which builds a tuple of all q labels
        reads = []
        derived = FoldCell.auc_defined.fget
        monkeypatch.setattr(FoldCell, "auc_defined",
                            property(lambda c: reads.append(c) or derived(c)))
        cells = (FoldCell(0, 0, (0.5, 1.0, 0.0), (math.nan, 0.75, 0.25), ()),
                 FoldCell(0, 1, (0.25, 0.0, 1.0), (0.5, math.nan, math.nan), ("b",)))
        assert cells[1].auc_defined == (True, False, False) and len(reads) == 1
        reads.clear()
        report = MetricReport("uclso", ("a", "b", "c"), cells, seed=3)
        assert report.rows() == [
            (0, 0, "a", "f1", 0.5),
            (0, 0, "b", "f1", 1.0), (0, 0, "b", "auc", 0.75),
            (0, 0, "c", "f1", 0.0), (0, 0, "c", "auc", 0.25),
            (0, 1, "a", "f1", 0.25), (0, 1, "a", "auc", 0.5),
            (0, 1, "b", "f1", 0.0),
            (0, 1, "c", "f1", 1.0),
        ]
        assert len(reads) <= len(cells)


class TestAucDefined:
    def test_plan_and_labels_decide(self):
        plan = make_fold_plan(40, 2, 2, seed=0)
        labels = np.zeros((40, 2), dtype=int)
        assert not auc_defined(labels, plan)
        labels[:, 1] = 1
        assert not auc_defined(labels, plan)
        labels[:20, 0] = 1
        assert auc_defined(labels, plan)
