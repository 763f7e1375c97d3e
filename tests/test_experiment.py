from dataclasses import replace

import numpy as np
import pytest

from uclso import experiment
from uclso.clustering import kmeans
from uclso.dataset import MultiLabelDataset, make_fold_plan
from uclso.experiment import MethodSpec, _cell_seed, auc_defined, run_cv
from uclso.linear import TrainConfig, br_problems, fit_lockstep
from uclso.oversample import OversampleConfig, iter_augments


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
            fitted.append(result[:2])  # weights, bias
            return result

        monkeypatch.setattr(experiment, "fit_lockstep", spy)
        run_cv(ds, [method], plan, FAST)
        ((group_w, group_b),) = fitted
        assert len(group_w) == 4 * ds.q
        for c, (rep, fold) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
            train_idx, _ = plan.train_test(rep, fold)
            train = ds.subset(train_idx)
            os_cfg = replace(method.oversample, seed=_cell_seed(method.oversample.seed, rep, fold))
            assign = kmeans(train.features, 3, seed=os_cfg.seed)
            augments = list(iter_augments(train, os_cfg, assign))
            X = np.vstack([train.features] + [aug.extra.points for aug in augments])
            cell_seed = _cell_seed(FAST.seed, rep, fold)
            rows, targets, seeds = br_problems(
                train.labels, 0, train.n, [len(aug.extra) for aug in augments], cell_seed
            )
            cell_w, cell_b, _ = fit_lockstep(X, rows, targets, seeds, FAST)
            for l in range(ds.q):
                seed = int(np.random.SeedSequence([cell_seed, l]).generate_state(1)[0])
                # the label's own augmented set: base rows, then its points
                (alone_w,), (alone_b,), _ = fit_lockstep(
                    X[rows[l]], [np.arange(len(rows[l]))], [targets[l]], [seed], FAST
                )
                k = c * ds.q + l
                for w, b in ((cell_w[l], cell_b[l]), (group_w[k], group_b[k])):
                    assert np.array_equal(alone_w, w)
                    assert alone_b == b


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
        folds = [ds.features[plan.train_test(rep, fold)[0]]
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


class TestAucDefined:
    def test_plan_and_labels_decide(self):
        plan = make_fold_plan(40, 2, 2, seed=0)
        labels = np.zeros((40, 2), dtype=int)
        assert not auc_defined(labels, plan)
        labels[:, 1] = 1
        assert not auc_defined(labels, plan)
        labels[:20, 0] = 1
        assert auc_defined(labels, plan)
