"""Cross-method rank aggregation and the Friedman test with Finner-adjusted
post-hoc comparisons against the best-ranked method, and `ranked_tables`,
which lays out a study's rank, Friedman and critical-difference tables.

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


def average_ranks(scores: np.ndarray, method_names) -> RankTable:
    """Per-dataset ranks, the highest score first (midrank ties), and their
    per-method means."""
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 2:
        raise RankingError("scores must be a datasets x methods matrix")
    if not np.isfinite(scores).all():
        raise RankingError("non-finite scores")
    if len(method_names) != scores.shape[1]:
        raise RankingError("method_names length mismatch")
    ranks = np.vstack([midranks(row) for row in -scores])
    return RankTable(tuple(method_names), scores, ranks, ranks.mean(axis=0))


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


def ranked_tables(scores: np.ndarray, dataset_names, method_names) -> dict[str, tuple]:
    """The tables of a ranked study of datasets x methods scores, the
    highest best, each a (header, rows) pair keyed by its file's stem:
    rank, one row per dataset of each method's score and rank, then the
    average_rank row, its score cells empty; friedman, the test's fields,
    then a vs_<method> row for each comparison with the control; cd, the
    plot-ready (method, average rank, group) rows by average rank, group 0
    the control and every method not significantly different from it."""
    rt = average_ranks(scores, method_names)
    if len(dataset_names) != rt.scores.shape[0]:
        raise RankingError("dataset_names length mismatch")
    result = friedman(rt)
    rank_rows = [
        [name, *(v for pair in zip(row_scores, row_ranks) for v in pair)]
        for name, row_scores, row_ranks in zip(
            dataset_names, rt.scores.tolist(), rt.ranks.tolist()
        )
    ]
    rank_rows.append(["average_rank", *(v for a in rt.average_ranks.tolist() for v in ("", a))])
    friedman_rows = [
        ["chi_square", result.chi_square],
        ["dof", result.dof],
        ["p_value", result.p_value],
        ["control", result.control],
        ["alpha", result.alpha],
    ] + [
        [f"vs_{c.method}", c.z, c.p_raw, c.p_adjusted, int(c.significant)]
        for c in result.comparisons
    ]
    split = {c.method for c in result.comparisons if c.significant}
    cd_rows = sorted(
        ((name, avg, int(name in split))
         for name, avg in zip(rt.method_names, rt.average_ranks.tolist())),
        key=lambda row: row[1],
    )
    return {
        "rank": (
            ["dataset", *(col for n in rt.method_names for col in (f"{n}_score", f"{n}_rank"))],
            rank_rows,
        ),
        "friedman": (["field", "value", "p_raw", "p_adjusted", "significant"], friedman_rows),
        "cd": (["method", "avg_rank", "group"], cd_rows),
    }
