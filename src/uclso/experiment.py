"""Repeated cross-validation harness: per fold-cell clustering,
augmentation, binary-relevance training and metric collection.

The (repetition, fold) cells are taken in turn. Each cell's training rows
are subset once and shared by every method; each (cell, method) unit then
clusters and augments them. A group of units at a time goes into one
training matrix, which stores each cell's base rows once, and all of the
group's (cell, method, label) models are fit together in one lockstep run
(see `linear.fit_lockstep`). Small cells share a group; a unit of large
data is a group of its own (see GROUP_ELEMENTS). There is no thread pool.
Each unit is pure given its derived seed, and a model's fit does not
depend on the models that share its run, so the report depends only on
the inputs.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .clustering import kmeans
from .dataset import FoldPlan, MultiLabelDataset
from .linear import TrainConfig, br_problems, fit_lockstep, score
from .metrics import auc_label, confusion, f1_label, macro_average
from .oversample import (
    OversampleConfig,
    iter_augments,
    label_draws,
    synthetic_count,
)


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
    auc_defined: tuple[bool, ...]
    macro_f1: float
    macro_auc: float  # nan when no label had a defined AUC
    constant_labels: tuple[str, ...]  # single-class training fallbacks


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
            for l, name in enumerate(self.label_names):
                out.append((c.rep, c.fold, name, "f1", c.f1[l]))
                if c.auc_defined[l]:
                    out.append((c.rep, c.fold, name, "auc", c.auc[l]))
        return out


def _cell_seed(base: int, rep: int, fold: int) -> int:
    return int(np.random.SeedSequence([base, rep, fold]).generate_state(1)[0])


def auc_defined(labels: np.ndarray, plan: FoldPlan) -> bool:
    """Whether some (repetition, fold) cell has a label with both classes
    among its test rows, so that at least one AUC can be defined."""
    for rep in range(plan.repetitions):
        for fold in range(plan.folds_per_rep):
            _, test_idx = plan.train_test(rep, fold)
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
    """Score label l's model, weights[l] and bias[l], on the test rows."""
    X_test = ds.features[test_idx]
    y_test = ds.labels[test_idx]
    f1s, aucs, defined = [], [], []
    for l, (w, b) in enumerate(zip(weights, bias)):
        scores = score(w, b, X_test)
        f1s.append(f1_label(confusion(y_test[:, l], (scores > 0.0).astype(int))))
        col = y_test[:, l]
        if 0 < col.sum() < col.size:
            aucs.append(auc_label(scores, col))
            defined.append(True)
        else:
            aucs.append(float("nan"))
            defined.append(False)
    macro_f1 = macro_average(np.array(f1s))
    macro_auc = (
        macro_average(np.array(aucs), np.array(defined))
        if any(defined)
        else float("nan")
    )
    return FoldCell(
        rep=rep,
        fold=fold,
        f1=tuple(f1s),
        auc=tuple(aucs),
        auc_defined=tuple(defined),
        macro_f1=macro_f1,
        macro_auc=macro_auc,
        constant_labels=constant_labels,
    )


# Size of one lockstep group, in matrix elements: each training row is
# stored once (d values) and sits in the row lists of up to q models. A
# group takes (cell, method) units until it holds GROUP_ELEMENTS // (d + q)
# rows, so many small cells share one run while a unit of large data is a
# group of its own, and memory stays near one cell's whatever the number of
# cells.
GROUP_ELEMENTS = 1 << 20


def _fit_group(
    ds: MultiLabelDataset, train_cfg: TrainConfig, group: list, size: int, cells: dict
) -> None:
    """Synthesize the group's units, as run_cv prepared them, into one
    matrix of `size` rows, fit every (cell, method, label) model in one
    lockstep run and append each unit's scored cell to cells[method name].
    A cell's units are consecutive, and the first stores its base rows."""
    X = np.empty((size, ds.d))
    rows, targets, seeds = [], [], []
    start = end = 0
    for u, (_, train_ds, (rep, fold, _), os_cfg, assign, draws, counts) in enumerate(group):
        if u == 0 or train_ds is not group[u - 1][1]:
            start, end = end, end + train_ds.n
            X[start:end] = train_ds.features
        synth = end
        end += sum(counts)
        # each label's points land in X; its provenance is dropped with it
        for _ in iter_augments(train_ds, os_cfg, assign, X[synth:end], draws):
            pass
        unit_rows, unit_targets, unit_seeds = br_problems(
            train_ds.labels, start, synth, counts, _cell_seed(train_cfg.seed, rep, fold)
        )
        rows += unit_rows
        targets += unit_targets
        seeds += unit_seeds
    weights, bias, constant = fit_lockstep(X, rows, targets, seeds, train_cfg)

    q = ds.q
    for u, (name, _, (rep, fold, test_idx), *_) in enumerate(group):
        cells[name].append(_score_cell(
            ds,
            test_idx,
            weights[u * q:(u + 1) * q],
            bias[u * q:(u + 1) * q],
            tuple(ds.label_names[i - u * q] for i in constant if i // q == u),
            rep,
            fold,
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
       (uclso) and work out each label's draws, and so its synthetic count.
    2. Per group of (cell, method) units (see GROUP_ELEMENTS): allocate one
       matrix with each cell's base rows once and each unit's synthetic
       rows, which synthesis writes in place.
    3. Fit every (cell, method, label) model of the group in one lockstep
       run.
    4. Score each unit on its cell's test rows.

    threads is accepted for compatibility and ignored: cells run in order
    in this thread.
    """
    if not methods:
        raise ValueError("need at least one method")
    names = [m.name for m in methods]
    if len(set(names)) != len(names):
        raise ValueError("duplicate method names")
    max_rows = GROUP_ELEMENTS // (ds.d + ds.q)
    cells: dict[str, list[FoldCell]] = {name: [] for name in names}
    group: list = []
    group_rows = 0
    for rep in range(plan.repetitions):
        for fold in range(plan.folds_per_rep):
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
                counts = [synthetic_count(d) for d in draws]
                if not group or group[-1][1] is not train_ds:
                    group_rows += train_ds.n  # the cell's base rows, once per group
                cell = (rep, fold, test_idx)
                group.append((method.name, train_ds, cell, os_cfg, assign, draws, counts))
                group_rows += sum(counts)
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
