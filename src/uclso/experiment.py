"""Repeated cross-validation harness: per fold-cell clustering,
augmentation, binary-relevance training and metric collection.

Cells run one after another in a plain loop, method, then repetition,
then fold; there is no thread pool. Each cell is pure given its derived
seed, so the report depends only on the inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .clustering import kmeans
from .dataset import FoldPlan, MultiLabelDataset
from .linear import TrainConfig, br_fit, predict, score
from .metrics import auc_label, confusion, f1_label, macro_average
from .oversample import OversampleConfig, augment_all


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
            "macro_auc_mean": float(np.nanmean(aucs)),
            "macro_auc_std": (
                float(np.nanstd(aucs, ddof=1)) if aucs.size > 1 else 0.0
            ),
            "macro_f1_per_rep": per_rep_f1,
            "auc_undefined_cells": int(np.isnan(aucs).sum()),
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


def evaluate_cell(
    ds: MultiLabelDataset,
    train_idx: np.ndarray,
    test_idx: np.ndarray,
    method: MethodSpec,
    train_cfg: TrainConfig,
    rep: int,
    fold: int,
) -> FoldCell:
    """Cluster, augment and fit on the training rows only, then score the
    test rows. Test rows are never visible to clustering or synthesis."""
    train_ds = ds.subset(train_idx)
    os_cfg = replace(method.oversample, seed=_cell_seed(method.oversample.seed, rep, fold))
    assign = None
    if os_cfg.mode == "uclso":
        assign = kmeans(train_ds.features, os_cfg.k_clusters, seed=os_cfg.seed)
    augments = augment_all(train_ds, os_cfg, assign)
    cell_train_cfg = replace(train_cfg, seed=_cell_seed(train_cfg.seed, rep, fold))
    br = br_fit(train_ds, augments, cell_train_cfg, on_single_class="constant")

    X_test = ds.features[test_idx]
    y_test = ds.labels[test_idx]
    f1s, aucs, defined = [], [], []
    for l, model in enumerate(br.models):
        scores = score(model, X_test)
        preds = predict(model, X_test)
        f1s.append(f1_label(confusion(y_test[:, l], preds)))
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
        constant_labels=br.constant_labels,
    )


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
    reports = {}
    for method in methods:
        cells = []
        for rep in range(plan.repetitions):
            for fold in range(plan.folds_per_rep):
                train_idx, test_idx = plan.train_test(rep, fold)
                cells.append(
                    evaluate_cell(ds, train_idx, test_idx, method, train_cfg, rep, fold)
                )
        reports[method.name] = MetricReport(
            method=method.name,
            label_names=ds.label_names,
            cells=tuple(cells),
            seed=method.oversample.seed,
        )
    return reports
