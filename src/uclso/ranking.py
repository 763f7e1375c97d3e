"""Cross-method rank aggregation and the Friedman test with Finner-adjusted
post-hoc comparisons against the best-ranked method.

Ranks are numpy midranks (`metrics.midranks`). scipy is used only by the
Friedman test, for the chi-square and normal tail probabilities, through
`scipy.special`, which `friedman` imports on first use."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import midranks


# significance level of the post-hoc comparisons
ALPHA = 0.05


class RankingError(ValueError):
    pass


@dataclass(frozen=True)
class RankTable:
    dataset_names: tuple[str, ...]
    method_names: tuple[str, ...]
    scores: np.ndarray  # (datasets, methods)
    ranks: np.ndarray  # within-row ranks, 1 = best, ties get average rank
    average_ranks: np.ndarray  # per-method column means


@dataclass(frozen=True)
class Comparison:
    method: str
    z: float
    p_raw: float
    p_adjusted: float
    significant: bool


@dataclass(frozen=True)
class FriedmanResult:
    chi_square: float
    dof: int
    p_value: float
    control: str
    alpha: float
    comparisons: tuple[Comparison, ...]


def average_ranks(scores: np.ndarray, method_names, dataset_names=None) -> RankTable:
    """Per-dataset ranks, the highest score first (midrank ties), and their
    per-method means."""
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 2:
        raise RankingError("scores must be a datasets x methods matrix")
    if not np.isfinite(scores).all():
        raise RankingError("non-finite scores")
    n_data, n_methods = scores.shape
    if len(method_names) != n_methods:
        raise RankingError("method_names length mismatch")
    if dataset_names is None:
        dataset_names = tuple(f"dataset_{i}" for i in range(n_data))
    if len(dataset_names) != n_data:
        raise RankingError("dataset_names length mismatch")
    ranks = np.vstack([midranks(row) for row in -scores])
    return RankTable(
        tuple(dataset_names),
        tuple(method_names),
        scores,
        ranks,
        ranks.mean(axis=0),
    )


def finner_adjust(p_values: np.ndarray) -> np.ndarray:
    """Step-down Finner adjustment: 1 - (1 - p_(i))^(m/i) over ascending
    p-values, made monotone by a running maximum."""
    p_values = np.asarray(p_values, dtype=float)
    m = p_values.size
    order = np.argsort(p_values, kind="stable")
    adjusted = np.empty(m)
    running = 0.0
    for i, idx in enumerate(order, start=1):
        adj = 1.0 - (1.0 - p_values[idx]) ** (m / i)
        running = max(running, adj)
        adjusted[idx] = min(1.0, running)
    return adjusted


def friedman(rt: RankTable) -> FriedmanResult:
    """Tie-corrected Friedman chi-square over the rank table, plus pairwise
    z-tests of every method against the best-ranked control with Finner
    p-value adjustment."""
    # imported here, not at module level, so that importing uclso does
    # not pay for scipy: only this test needs it
    from scipy.special import chdtrc, ndtr

    n_data, n_methods = rt.ranks.shape
    if n_methods < 2 or n_data < 2:
        raise RankingError("need at least 2 methods and 2 datasets")
    k = n_methods
    rank_sums = rt.ranks.sum(axis=0)
    raw_stat = (12.0 / (n_data * k * (k + 1))) * float(
        (rank_sums ** 2).sum()
    ) - 3.0 * n_data * (k + 1)
    # tie correction: sum of (t^3 - t) over tie groups of every row
    tie_term = 0.0
    for row in rt.ranks:
        _, counts = np.unique(row, return_counts=True)
        tie_term += float((counts.astype(float) ** 3 - counts).sum())
    correction = 1.0 - tie_term / (n_data * k * (k ** 2 - 1))
    if correction <= 0.0:
        # every row fully tied: no rank variation at all
        stat = 0.0
        p_value = 1.0
    else:
        stat = raw_stat / correction
        stat = max(stat, 0.0)
        p_value = float(chdtrc(k - 1, stat))  # chi2.sf(stat, k - 1)

    control_idx = int(np.argmin(rt.average_ranks))
    control = rt.method_names[control_idx]
    se = np.sqrt(k * (k + 1) / (6.0 * n_data))
    others = [j for j in range(k) if j != control_idx]
    zs = np.array(
        [(rt.average_ranks[j] - rt.average_ranks[control_idx]) / se for j in others]
    )
    p_raw = 2.0 * ndtr(-np.abs(zs))  # 2 * norm.sf(|z|)
    p_adj = finner_adjust(p_raw)
    comparisons = tuple(
        Comparison(
            method=rt.method_names[j],
            z=float(z),
            p_raw=float(pr),
            p_adjusted=float(pa),
            significant=bool(pa < ALPHA),
        )
        for j, z, pr, pa in zip(others, zs, p_raw, p_adj)
    )
    return FriedmanResult(
        chi_square=float(stat),
        dof=k - 1,
        p_value=float(p_value),
        control=control,
        alpha=ALPHA,
        comparisons=comparisons,
    )


def critical_difference_rows(rt: RankTable, result: FriedmanResult) -> list[tuple]:
    """Plot-ready rows (method, average_rank, group): group 0 holds the
    control and every method not significantly different from it."""
    sig = {c.method: c.significant for c in result.comparisons}
    rows = []
    for name, avg in zip(rt.method_names, rt.average_ranks):
        group = 0 if (name == result.control or not sig.get(name, False)) else 1
        rows.append((name, float(avg), group))
    rows.sort(key=lambda r: r[1])
    return rows
