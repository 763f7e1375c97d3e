"""Repeated cross-validation harness: per fold-cell clustering,
augmentation, binary-relevance training and metric collection.

The (repetition, fold) cells are taken in turn. Each cell's training rows
are subset once and shared by every method; each (cell, method) unit then
clusters them (uclso) and plans each label's draws, which are all that its
method's mode decides. A group of units at a time goes into one training
matrix, laid out by `_fit_group` alone: `oversample.augment`, the path the
CLI takes too, writes each label's points into it, and all of the group's
(cell, method, label) models are fit together in one lockstep run (see
`linear.fit_lockstep`). Small cells share a group; a unit of large data is
a group of its own (see GROUP_ELEMENTS). There is no thread pool. Each
unit is pure given its derived seed, and a model's fit does not depend on
the models that share its run, so the report depends only on the inputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .clustering import check_k, kmeans
from .dataset import FoldPlan, MultiLabelDataset, check_row_norms
from .linear import TrainConfig, fit_lockstep, index_dtype, norm_limit
from .metrics import auc_label, confusion, f1_label, macro_average
from .oversample import OversampleConfig, augment, label_draws, synthetic_count


@dataclass(frozen=True)
class MethodSpec:
    name: str
    oversample: OversampleConfig


@dataclass(frozen=True)
class FoldCell:
    rep: int
    fold: int
    f1: tuple[float, ...]  # per label
    auc: tuple[float, ...]  # per label; nan where undefined
    constant_labels: tuple[str, ...]  # single-class training fallbacks

    @property
    def auc_defined(self) -> tuple[bool, ...]:
        return tuple(not math.isnan(a) for a in self.auc)

    @property
    def macro_f1(self) -> float:
        return macro_average(np.array(self.f1))

    @property
    def macro_auc(self) -> float:  # nan when no label had a defined AUC
        defined = self.auc_defined
        if not any(defined):
            return math.nan
        return macro_average(np.array(self.auc), np.array(defined))


@dataclass(frozen=True)
class MetricReport:
    method: str
    label_names: tuple[str, ...]
    cells: tuple[FoldCell, ...]
    seed: int

    def summary(self) -> dict:
        f1s = np.array([c.macro_f1 for c in self.cells])
        aucs = np.array([c.macro_auc for c in self.cells])
        undefined = int(np.isnan(aucs).sum())
        defined = aucs.size - undefined  # np.nanmean/np.nanstd warn on too few
        reps = sorted({c.rep for c in self.cells})
        per_rep_f1 = {
            rep: float(np.mean([c.macro_f1 for c in self.cells if c.rep == rep]))
            for rep in reps
        }
        return {
            "method": self.method,
            "seed": self.seed,
            "cells": len(self.cells),
            "macro_f1_mean": float(f1s.mean()),
            "macro_f1_std": float(f1s.std(ddof=1)) if f1s.size > 1 else 0.0,
            "macro_auc_mean": float(np.nanmean(aucs)) if defined else float("nan"),
            "macro_auc_std": (
                0.0 if aucs.size <= 1
                else float(np.nanstd(aucs, ddof=1)) if defined > 1 else float("nan")
            ),
            "macro_f1_per_rep": per_rep_f1,
            "auc_undefined_cells": undefined,
            "constant_label_events": sum(len(c.constant_labels) for c in self.cells),
        }

    def rows(self):
        """Flat (rep, fold, label, metric, value) rows for CSV export."""
        out = []
        for c in self.cells:
            for name, f1, auc in zip(self.label_names, c.f1, c.auc, strict=True):
                out.append((c.rep, c.fold, name, "f1", f1))
                if not math.isnan(auc):
                    out.append((c.rep, c.fold, name, "auc", auc))
        return out


@dataclass(frozen=True, eq=False)
class _Unit:
    """One (cell, method) unit as run_cv plans it for _fit_group."""

    method: str
    train: MultiLabelDataset  # the cell's training rows, shared by its units
    rep: int
    fold: int
    test_idx: np.ndarray
    oversample: OversampleConfig  # seeded for the cell
    draws: list  # label_draws per label
    stores_base: bool  # the first of its cell's units in the group


def _cell_seed(base: int, rep: int, fold: int) -> int:
    return int(np.random.SeedSequence([base, rep, fold]).generate_state(1)[0])


def auc_defined(labels: np.ndarray, plan: FoldPlan) -> bool:
    """Whether some (repetition, fold) cell has a label with both classes
    among its test rows, so that at least one AUC can be defined."""
    for folds in plan.assignments:
        for test_idx in folds:
            positives = labels[test_idx].sum(axis=0)
            if ((positives > 0) & (positives < test_idx.size)).any():
                return True
    return False


def _score_cell(
    ds: MultiLabelDataset,
    test_idx: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray,
    constant_labels: tuple[str, ...],
    rep: int,
    fold: int,
) -> FoldCell:
    """Score label l's model, weights[l] and bias[l], on the test rows:
    one product gives every label's decision values, a column each."""
    scores = ds.features[test_idx] @ weights.T
    scores += bias  # in place: one test rows x q array, not two
    f1s, aucs = [], []
    for s, col in zip(scores.T, ds.labels[test_idx].T):
        f1s.append(f1_label(confusion(col, (s > 0.0).astype(int))))
        aucs.append(auc_label(s, col) if 0 < col.sum() < col.size else math.nan)
    return FoldCell(
        rep=rep,
        fold=fold,
        f1=tuple(f1s),
        auc=tuple(aucs),
        constant_labels=constant_labels,
    )


def check_plan(ds: MultiLabelDataset, methods: list[MethodSpec], plan: FoldPlan,
               cfg: TrainConfig) -> None:
    """Raise, before any compute, if run_cv cannot finish the plan: no
    method or a name twice; a plan with no repetition; a repetition of
    fewer than 2 folds, whose folds do not partition the dataset's rows or
    with an empty fold; a row's norm past linear.norm_limit for models of 2n
    rows, n the largest training fold (label l's model takes the fold's
    rows and at most n_maj <= n synthetic points, each a convex combination
    of two of them: a quota's ceiling adds under one point per cluster, and
    at most n_min clusters hold minority points); or a uclso method's
    k_clusters past the smallest training fold, which it clusters."""
    if not methods:
        raise ValueError("need at least one method")
    names = [m.name for m in methods]
    if len(set(names)) != len(names):
        raise ValueError("duplicate method names")
    if not plan.assignments:
        raise ValueError("fold plan has no repetition")
    every_row = np.arange(ds.n)
    for r, folds in enumerate(plan.assignments):
        if len(folds) < 2:
            raise ValueError(
                f"fold plan repetition {r}: need at least 2 folds, got {len(folds)}"
            )
        if not np.array_equal(np.sort(np.concatenate(folds)), every_row):
            raise ValueError(
                f"fold plan repetition {r}: its folds do not partition the "
                f"dataset's {ds.n} rows"
            )
        for f, test in enumerate(folds):
            if len(test) == 0:
                raise ValueError(f"fold plan repetition {r}: fold {f} is empty")
    rows = [ds.n - len(test) for folds in plan.assignments for test in folds]
    limit = norm_limit(cfg, 2 * max(rows))
    check_row_norms(ds.features, limit, "that float32 training keeps in range")
    for method in methods:
        if method.oversample.mode == "uclso":
            check_k(method.oversample.k_clusters, min(rows))


# Size of one lockstep group, in matrix elements: each training row is
# stored once (d values) and sits in the row lists of up to q models. A
# group takes (cell, method) units until it holds GROUP_ELEMENTS // (d + q)
# rows, so many small cells share one run while a unit of large data is a
# group of its own, and memory stays near one cell's whatever the number of
# cells.
GROUP_ELEMENTS = 1 << 20


def _fit_group(
    ds: MultiLabelDataset, train_cfg: TrainConfig, group: list[_Unit], size: int,
    cells: dict
) -> None:
    """Lay out the group's units, as run_cv planned them, in one matrix of
    `size` rows, fit every (cell, method, label) model in one lockstep run and
    append each unit's scored cell to cells[method name]. A unit that
    stores its cell's base rows puts them next; then, label by label,
    augment writes the points of the label's draws into its own block.
    Label l's model trains on the base rows (targets: its column) and its
    block (targets: 1), under a seed derived from (cell seed, l). The
    matrix is float32: base rows and synthetic points are each rounded to
    it once, and the models train in float32, in range by check_plan."""
    X = np.empty((size, ds.d), dtype=np.float32)
    index = index_dtype(size)  # fit_lockstep's, so it copies no row array
    rows, targets, seeds = [], [], []
    end = 0
    for unit in group:
        train_ds, os_cfg = unit.train, unit.oversample
        if unit.stores_base:
            X[end:end + train_ds.n] = train_ds.features
            base = np.arange(end, end + train_ds.n, dtype=index)
            end += train_ds.n
        labels = train_ds.labels.astype(np.int8)
        cell_seed = _cell_seed(train_cfg.seed, unit.rep, unit.fold)
        for l, plan in enumerate(unit.draws):
            count = synthetic_count(plan)
            if count:  # the label's points land in X; its provenance is dropped with it
                augment(train_ds, l, os_cfg, plan, X[end:end + count])
            rows.append(np.concatenate([base, np.arange(end, end + count, dtype=index)]))
            targets.append(np.concatenate([labels[:, l], np.ones(count, dtype=np.int8)]))
            seeds.append(int(np.random.SeedSequence([cell_seed, l]).generate_state(1)[0]))
            end += count
    weights, bias, constant = fit_lockstep(X, rows, targets, seeds, train_cfg)

    q = ds.q
    for u, unit in enumerate(group):
        cells[unit.method].append(_score_cell(
            ds,
            unit.test_idx,
            weights[u * q:(u + 1) * q],
            bias[u * q:(u + 1) * q],
            tuple(ds.label_names[i - u * q] for i in constant if i // q == u),
            unit.rep,
            unit.fold,
        ))


def run_cv(
    ds: MultiLabelDataset,
    methods: list[MethodSpec],
    plan: FoldPlan,
    train_cfg: TrainConfig,
    threads: int = 1,
) -> dict[str, MetricReport]:
    """Evaluate every method over every (repetition, fold) cell.

    1. Per cell: subset the training rows once; per method, cluster them
       (uclso), work out each label's draws, and so its synthetic count,
       and whether the unit stores its cell's base rows in the group.
    2. Per group of (cell, method) units (see GROUP_ELEMENTS): _fit_group
       fills one matrix with each cell's base rows once and each unit's
       synthetic rows, which synthesis writes in place.
    3. Fit every (cell, method, label) model of the group in one lockstep
       run.
    4. Score each unit on its cell's test rows.

    A plan that could not finish raises before the first cell
    (check_plan), so no cell fails once computed. threads is accepted for
    compatibility and ignored: cells run in order in this thread.
    """
    check_plan(ds, methods, plan, train_cfg)
    max_rows = GROUP_ELEMENTS // (ds.d + ds.q)
    cells: dict[str, list[FoldCell]] = {method.name: [] for method in methods}
    group: list[_Unit] = []
    group_rows = 0
    for rep, folds in enumerate(plan.assignments):
        for fold in range(len(folds)):
            train_idx, test_idx = plan.train_test(rep, fold)
            train_ds = ds.subset(train_idx)
            for method in methods:
                os_cfg = replace(
                    method.oversample, seed=_cell_seed(method.oversample.seed, rep, fold)
                )
                assign = None
                if os_cfg.mode == "uclso":
                    assign = kmeans(train_ds.features, os_cfg.k_clusters, seed=os_cfg.seed)
                draws = [label_draws(train_ds, os_cfg, assign, l) for l in range(ds.q)]
                # the cell's base rows are stored once per group, by its first unit
                stores_base = not group or group[-1].train is not train_ds
                if stores_base:
                    group_rows += train_ds.n
                group.append(_Unit(method.name, train_ds, rep, fold, test_idx, os_cfg,
                                   draws, stores_base))
                group_rows += sum(map(synthetic_count, draws))
                if group_rows >= max_rows:
                    _fit_group(ds, train_cfg, group, group_rows, cells)
                    group, group_rows = [], 0
    if group:
        _fit_group(ds, train_cfg, group, group_rows, cells)
    return {
        method.name: MetricReport(
            method=method.name,
            label_names=ds.label_names,
            cells=tuple(cells[method.name]),
            seed=method.oversample.seed,
        )
        for method in methods
    }
