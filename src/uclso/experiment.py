"""Repeated cross-validation harness: per fold-cell clustering,
augmentation, binary-relevance training and metric collection.

Methods run one after another. Within a method, the (repetition, fold)
cells are subset, clustered and augmented in turn, a group of cells at a
time, into one training matrix per group, and all of the group's (cell,
label) models are fit together in one lockstep run (see
`linear.fit_lockstep`). Small cells share a group; a cell of large data
is a group of its own (see GROUP_ELEMENTS). There is no thread pool.
Each cell is pure given its derived seed, and a model's fit does not
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

    def macro_f1_values(self) -> np.ndarray:
        return np.array([c.macro_f1 for c in self.cells])

    def macro_auc_values(self) -> np.ndarray:
        return np.array([c.macro_auc for c in self.cells])

    def summary(self) -> dict:
        f1s = self.macro_f1_values()
        aucs = self.macro_auc_values()
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
    models,
    constant_labels: tuple[str, ...],
    rep: int,
    fold: int,
) -> FoldCell:
    X_test = ds.features[test_idx]
    y_test = ds.labels[test_idx]
    f1s, aucs, defined = [], [], []
    for l, model in enumerate(models):
        scores = score(model, X_test)
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
# group takes cells until it holds GROUP_ELEMENTS // (d + q) rows, so many
# small cells share one run while a cell of large data is a group of its
# own, and memory stays near one cell's whatever the number of cells.
GROUP_ELEMENTS = 1 << 20


def _fit_group(
    ds: MultiLabelDataset, train_cfg: TrainConfig, group: list
) -> list[FoldCell]:
    """Synthesize the group's cells, as _method_cells prepared them, into
    one matrix, fit every (cell, label) model in one lockstep run and score
    each cell."""
    X = np.empty((sum(g[1].n + sum(g[5]) for g in group), ds.d))
    rows, targets, seeds = [], [], []
    start = 0
    for (rep, fold, _, _), train_ds, os_cfg, assign, draws, counts in group:
        synth = start + train_ds.n
        end = synth + sum(counts)
        X[start:synth] = train_ds.features
        # each label's points land in X; its provenance is dropped with it
        for _ in iter_augments(train_ds, os_cfg, assign, X[synth:end], draws):
            pass
        cell_rows, cell_targets, cell_seeds = br_problems(
            train_ds.labels, start, counts, _cell_seed(train_cfg.seed, rep, fold)
        )
        rows += cell_rows
        targets += cell_targets
        seeds += cell_seeds
        start = end
    models, constant = fit_lockstep(X, rows, targets, seeds, train_cfg)

    q = ds.q
    return [
        _score_cell(
            ds,
            test_idx,
            models[c * q:(c + 1) * q],
            tuple(ds.label_names[i - c * q] for i in constant if i // q == c),
            rep,
            fold,
        )
        for c, ((rep, fold, _, test_idx), *_) in enumerate(group)
    ]


def _method_cells(
    ds: MultiLabelDataset,
    method: MethodSpec,
    train_cfg: TrainConfig,
    cells: list[tuple[int, int, np.ndarray, np.ndarray]],
) -> list[FoldCell]:
    """One method over the given (rep, fold, train_idx, test_idx) cells.

    1. Per cell: subset the training rows, cluster them (uclso) and work
       out each label's draws, and so its synthetic count.
    2. Per group of cells (see GROUP_ELEMENTS): allocate one matrix with,
       per cell, its base rows, then each label's synthetic rows, which
       synthesis writes in place.
    3. Fit every (cell, label) model of the group in one lockstep run.
    4. Score each cell on its test rows.
    """
    max_rows = GROUP_ELEMENTS // (ds.d + ds.q)
    results: list[FoldCell] = []
    group: list = []
    group_rows = 0
    for cell in cells:
        rep, fold, train_idx, _ = cell
        train_ds = ds.subset(train_idx)
        os_cfg = replace(
            method.oversample, seed=_cell_seed(method.oversample.seed, rep, fold)
        )
        assign = None
        if os_cfg.mode == "uclso":
            assign = kmeans(train_ds.features, os_cfg.k_clusters, seed=os_cfg.seed)
        draws = [label_draws(train_ds, os_cfg, assign, l) for l in range(ds.q)]
        counts = [synthetic_count(d) for d in draws]
        group.append((cell, train_ds, os_cfg, assign, draws, counts))
        group_rows += train_ds.n + sum(counts)
        if group_rows >= max_rows:
            results += _fit_group(ds, train_cfg, group)
            group, group_rows = [], 0
    if group:
        results += _fit_group(ds, train_cfg, group)
    return results


def run_cv(
    ds: MultiLabelDataset,
    methods: list[MethodSpec],
    plan: FoldPlan,
    train_cfg: TrainConfig,
    threads: int = 1,
) -> dict[str, MetricReport]:
    """Evaluate every method over every (repetition, fold) cell.

    threads is accepted for compatibility and ignored: cells run in order
    in this thread.
    """
    if not methods:
        raise ValueError("need at least one method")
    names = [m.name for m in methods]
    if len(set(names)) != len(names):
        raise ValueError("duplicate method names")
    cells = [
        (rep, fold, *plan.train_test(rep, fold))
        for rep in range(plan.repetitions)
        for fold in range(plan.folds_per_rep)
    ]
    reports = {}
    for method in methods:
        reports[method.name] = MetricReport(
            method=method.name,
            label_names=ds.label_names,
            cells=tuple(_method_cells(ds, method, train_cfg, cells)),
            seed=method.oversample.seed,
        )
    return reports
