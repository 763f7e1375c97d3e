"""Label-based evaluation metrics: per-label F1, Mann-Whitney AUC with
half credit for ties, and macro averaging over defined labels.

Midranks, which `ranking` uses, are computed here in numpy rather than
with scipy.stats, whose import takes about a second: scipy is used only by
the Friedman test in `ranking`, through `scipy.special`, and is imported
on first use."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class MetricError(ValueError):
    pass


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int


def confusion(y_true: np.ndarray, y_pred: np.ndarray) -> ConfusionCounts:
    y_true = np.asarray(y_true).astype(int)
    y_pred = np.asarray(y_pred).astype(int)
    if y_true.shape != y_pred.shape:
        raise MetricError("shape mismatch between truth and prediction")
    return ConfusionCounts(
        tp=int(((y_true == 1) & (y_pred == 1)).sum()),
        fp=int(((y_true == 0) & (y_pred == 1)).sum()),
        tn=int(((y_true == 0) & (y_pred == 0)).sum()),
        fn=int(((y_true == 1) & (y_pred == 0)).sum()),
    )


def f1_label(c: ConfusionCounts) -> float:
    """F1 = 2tp / (2tp + fp + fn); 0 by convention when the denominator
    vanishes (no positives anywhere)."""
    denom = 2 * c.tp + c.fp + c.fn
    if denom == 0:
        return 0.0
    return 2 * c.tp / denom


def midranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of the 1-d array x, each tie group given the mean of
    its ranks; all NaN when x holds a NaN. Equal, bit for bit, to
    scipy.stats.rankdata(x, method="average")."""
    x = np.asarray(x, dtype=float)
    if np.isnan(x).any():
        return np.full(x.shape, np.nan)
    order = np.argsort(x, kind="stable")
    y = x[order]
    starts = np.flatnonzero(np.r_[True, y[1:] != y[:-1]])
    counts = np.diff(starts, append=y.size)
    ranks = np.empty(y.size)
    # a group starting at 0-based position s holds ranks s+1 .. s+count
    ranks[order] = np.repeat(starts + (counts + 1) / 2, counts)
    return ranks


def auc_label(scores: np.ndarray, truth: np.ndarray) -> float:
    """Mann-Whitney AUC: P(score+ > score-) + 0.5 * P(score+ = score-).
    Undefined when truth is single-class; NaN when the scores hold a NaN.

    Each positive counts the negatives below it and half those tied with
    it, from two binary searches in the sorted negatives. The statistic U
    is an exact half-integer, so the result equals the midrank formula
    (sum of positive midranks - n_pos (n_pos + 1) / 2) / (n_pos n_neg)
    bit for bit."""
    scores = np.asarray(scores, dtype=float)
    truth = np.asarray(truth).astype(int)
    if scores.shape != truth.shape:
        raise MetricError("shape mismatch between scores and truth")
    n_pos = int((truth == 1).sum())
    n_neg = int((truth == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise MetricError("AUC undefined: truth contains a single class")
    if np.isnan(scores).any():
        return float("nan")
    pos = np.sort(scores[truth == 1])  # sorted keys speed up the searches
    neg = np.sort(scores[truth == 0])
    twice_u = int(np.searchsorted(neg, pos, "left").sum() + np.searchsorted(neg, pos, "right").sum())
    return twice_u / 2 / (n_pos * n_neg)


def macro_average(per_label: np.ndarray, defined: np.ndarray | None = None) -> float:
    """Arithmetic mean over the labels whose metric is defined."""
    per_label = np.asarray(per_label, dtype=float)
    if defined is None:
        defined = np.ones(per_label.shape, dtype=bool)
    defined = np.asarray(defined, dtype=bool)
    if not defined.any():
        raise MetricError("macro average over zero defined labels")
    return float(per_label[defined].mean())
