"""Label-specific synthetic minority generation.

Two flavours share the same interpolation primitive: the cluster-guarded
generator keeps parent pairs inside one k-means cluster with per-cluster
quotas proportional to the cluster's minority share, while the plain
SMOTE baseline draws neighbours from the global minority set. Either way a
parent's neighbours are its nearest other pool points by exact squared
distance, ties to the lower index, found only for the points drawn as
parents and in memory linear in the pool size.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .clustering import ClusterAssignment
from .dataset import MultiLabelDataset


class OversampleError(ValueError):
    pass


class LabelUnusableError(OversampleError):
    """Label has no minority points; nothing can be synthesized."""


@dataclass(frozen=True)
class OversampleConfig:
    k_clusters: int = 5
    m_neighbors: int = 5
    seed: int = 0
    mode: str = "uclso"  # uclso | smote | none

    def __post_init__(self):
        if self.k_clusters < 1:
            raise OversampleError("k_clusters must be >= 1")
        if self.m_neighbors < 1:
            raise OversampleError("m_neighbors must be >= 1")
        if self.mode not in ("uclso", "smote", "none"):
            raise OversampleError(f"unknown mode {self.mode!r}")


# Where one synthetic point came from: its cluster (-1 for the global
# baseline), its two parent row indices and the interpolation position.
PROVENANCE = np.dtype(
    [("cluster", np.int64), ("parent_u", np.int64), ("parent_v", np.int64), ("r", float)]
)


@dataclass(frozen=True)
class SyntheticSet:
    label_index: int
    points: np.ndarray  # (m, d)
    provenance: np.recarray  # (m,) PROVENANCE records, one per point

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class AugmentedDataset:
    base: MultiLabelDataset
    extra: SyntheticSet
    label_index: int


def minority_class(ds: MultiLabelDataset, l: int) -> tuple[np.ndarray, np.ndarray]:
    """Row indices of the minority (relevant, y=1) and majority (y=0)
    classes for label l."""
    if not 0 <= l < ds.q:
        raise OversampleError(f"label index {l} out of range")
    col = ds.labels[:, l]
    min_idx = np.flatnonzero(col == 1)
    maj_idx = np.flatnonzero(col == 0)
    if min_idx.size == 0:
        raise LabelUnusableError(
            f"label {ds.label_names[l]!r} has no minority points"
        )
    return min_idx, maj_idx


def quota(n_lp: int, n_min: int, n_maj: int) -> int:
    """Synthetic-point share of a cluster holding n_lp of the n_min
    minority points: ceil(n_lp * (n_maj - n_min) / n_min), 0 when the
    label is already balanced or majority-light."""
    if n_min < 1:
        raise OversampleError("n_min must be >= 1")
    if n_lp > n_min:
        raise OversampleError("cluster share exceeds total minority count")
    if n_maj <= n_min or n_lp == 0:
        return 0
    return -((-n_lp * (n_maj - n_min)) // n_min)


def interpolate(u: np.ndarray, v: np.ndarray, r: float | np.ndarray) -> np.ndarray:
    """Point at fraction r of the way from u to v; for rows of points,
    row i at fraction r[i] of the way from u[i] to v[i]."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    r = np.asarray(r, dtype=float)
    if u.shape != v.shape or (r.ndim and r.shape != u.shape[:-1]):
        raise OversampleError(
            f"dimension mismatch: {u.shape} vs {v.shape}, r {r.shape}"
        )
    if not ((r > 0.0) & (r < 1.0)).all():
        raise OversampleError(f"r={r} not in (0, 1)")
    return u + (v - u) * (r[..., None] if r.ndim else r)


def _label_rng(seed: int, l: int) -> np.random.Generator:
    # independent substream per label: results do not depend on the order
    # in which labels are processed
    return np.random.default_rng([seed, l])


# Requested rows searched at a time: each buffer of the neighbour search
# holds at most SORT_ROWS x p entries, p the pool size.
SORT_ROWS = 256
# Fewest candidate pairs per difference-form slice, so that a small pool
# costs few numpy calls per feature.
MIN_PAIRS = 2**14
# From this pool size on, when the pool holds at least 8m points, a row's
# filter threshold comes from its 2m column-block minima, not a partition.
BLOCK_MIN_POOL = 512
# Synthetic points interpolated at a time, in two float64 scratch blocks
# of SYNTH_ROWS x d.
SYNTH_ROWS = 256


def _difference_form(
    left: np.ndarray, i: np.ndarray, right: np.ndarray, j: np.ndarray
) -> np.ndarray:
    """sum_k (left[i, k] - right[j, k])**2 per pair, summed in feature
    order: a pair's value does not depend on the pairs computed with it."""
    diff = left[i]
    diff -= right[j]
    diff *= diff
    out = diff[:, 0].copy()
    for k in range(1, left.shape[1]):
        out += diff[:, k]
    return out


def neighbours(points: np.ndarray, m: int, rows: np.ndarray) -> np.ndarray:
    """Indices of the m nearest other points of each point named in
    `rows`, nearest first: row i of the result belongs to points[rows[i]].

    Distances are the difference form sum_k (x_ik - x_jk)**2, summed in
    feature order, and ties go to the lower index. The result is the first
    m of a stable sort of each requested row by that distance, the same at
    any SORT_ROWS and any BLAS thread count. Requested rows are searched
    SORT_ROWS at a time: one single-precision BLAS product gives their
    expanded-form distances to every point. These pick each row's
    candidates, and they order the row's m nearest alone wherever their
    gaps are wide enough to decide that order; the difference form is
    computed only for the other rows' candidates. Memory stays
    O(SORT_ROWS * p + MIN_PAIRS * d). The points must be finite."""
    points = np.asarray(points, dtype=float)
    rows = np.asarray(rows)
    if points.ndim != 2:
        raise OversampleError(f"points must be 2-d, got shape {points.shape}")
    p, d = points.shape
    if not 1 <= m <= p - 1:
        raise OversampleError(f"m={m} must be in [1, {p - 1}]")
    if (rows.ndim != 1 or not np.issubdtype(rows.dtype, np.integer)
            or (rows.size and not 0 <= rows.min() <= rows.max() < p)):
        raise OversampleError(f"rows must be 1-d integer indices in [0, {p})")
    # The filter: y is the pool less its float64 mean, w is y rounded to
    # float32, and s_i = |y_i|^2 + max_j |y_j|^2. Distances do not change
    # under translation; without the centring the slack below would grow
    # with the pool's offset from 0. The float32 BLAS product gives
    # g_ij = |w_j|^2 - 2 w_i.w_j, an expanded-form distance less the row's
    # constant |w_i|^2. By Higham (Accuracy and Stability of Numerical
    # Algorithms, ch. 3), with u = 2**-24 and gamma_n = n u / (1 - n u):
    # - the computed squared norms are within gamma_d of |w_j|^2, the dot
    #   product within gamma_d sum_k |w_ik w_jk| <= gamma_d s_i / 2 in any
    #   summation order, and the last addition rounds a value of size at
    #   most 2 s_i, so g_ij + |w_i|^2 lies within 2 gamma_{d+1} s_i of
    #   |w_i - w_j|^2;
    # - each coordinate of w is the exact centred one with a relative error
    #   under 1.01 u (the centring's rounding, then the cast's), so
    #   |w_i - w_j|^2 lies within 6.1 u s_i of the exact distance D_ij;
    # - the difference form sums d non-negative float64 terms of three
    #   roundings each, within 2 gamma_{d+2}(2**-53) s_i of D_ij, as D_ij
    #   <= 2 s_i.
    # With gamma_{d+2} >= 3u, these sum to under 4.1 gamma_{d+2} s_i, even
    # with s_i's own rounding. Inputs a BLAS flushes to zero add under
    # 2u s_i, so the two computed forms differ by at most e_i =
    # 5 gamma_{d+2} s_i. An entry whose lower bound g_ij - e_i lies above
    # an upper bound t_i + e_i on the row's m-th smallest g has m points
    # strictly nearer in the difference form, so only entries with
    # g_ij <= t_i + 2 e_i are candidates; t_i is the m-th smallest entry,
    # or on large pools a bound on it (_block_minima). Taking
    # 8 gamma_{d+2} covers the threshold's rounding to float32 (under
    # 2u s_i); the absolute term covers underflow (at most 4d + 8
    # operations, each off by under float32's tiny). A row with s_i past
    # float32's max / 8, where the product may overflow, takes every point
    # as a candidate; below it, no value the filter computes overflows.
    # The filter alone orders a row whose candidates, sorted by g, have
    # their first min(m + 1, count) values more than 2 slack apart. With
    # E_i = e_i plus the absolute term, slack > 2 E_i, and a g gap above
    # 2 E_i puts the two difference forms in the same strict order. Every
    # later candidate lies at least one such gap above the m-th. A
    # non-candidate lies above the rounded threshold, so above t_i + 2 E_i,
    # and the m-th candidate is the row's m-th smallest entry, at most t_i.
    # So the first m by g are the m nearest, in order, with no tie in the
    # difference form for the lower index to break. The gaps are float64
    # differences of float32 values, and rounding is monotone, so a computed
    # gap above the bound is a true one. Plain slack would do; the factor 2
    # keeps a margin over the derivation. Other rows, and every row of
    # infinite slack (no gap exceeds it), take the difference form.
    u = 2.0**-24
    single = np.finfo(np.float32)
    centred = points - points.mean(axis=0)
    norms = (centred * centred).sum(axis=1)
    s = norms + norms.max()
    slack = 2 * (8 * (d + 2) * u / (1 - (d + 2) * u) * s + (4 * d + 8) * float(single.tiny))
    slack[~(s < float(single.max) / 8)] = np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        w = centred.astype(np.float32)
        sq = (w * w).sum(axis=1)
    del centred
    neigh = np.empty((rows.size, m), dtype=np.intp)
    for start in range(0, rows.size, SORT_ROWS):
        neigh[start:start + SORT_ROWS] = _chunk_neighbours(
            points, w, sq, slack, rows[start:start + SORT_ROWS], m
        )
    return neigh


def _chunk_neighbours(
    points: np.ndarray,
    w: np.ndarray,
    sq: np.ndarray,
    slack: np.ndarray,
    chunk: np.ndarray,
    m: int,
) -> np.ndarray:
    """neighbours for the rows `chunk`, given the centred float32 points w,
    their squared norms and each row's filter slack (inf: every point is a
    candidate, and the row takes the difference form)."""
    p, d = points.shape
    own = (np.arange(chunk.size), chunk)
    with np.errstate(over="ignore", invalid="ignore"):
        g = (-2 * w[chunk]) @ w.T
        g += sq
    g[own] = np.inf
    low = g
    if p >= BLOCK_MIN_POOL and p >= 8 * m:
        low = _block_minima(g, 2 * m)
    kth = np.partition(low, m - 1, axis=1)[:, m - 1].copy()
    del low
    row_slack = slack[chunk]
    cand = g <= (kth + row_slack).astype(np.float32)[:, None]
    cand[np.isinf(row_slack)] = True
    cand[own] = False
    counts = cand.sum(axis=1)
    c = cand.ravel().nonzero()[0]
    del cand
    filt = g.ravel()[c]
    del g
    c %= p  # each row's candidate columns, ascending
    # each row's filter values, sorted in a block padded with inf
    block = np.full((chunk.size, counts.max()), np.inf, dtype=np.float32)
    block[np.arange(block.shape[1]) < counts[:, None]] = filt
    del filt
    pick = np.argsort(block, axis=1, kind="stable")[:, :m + 1]
    top = block[np.arange(chunk.size)[:, None], pick].astype(float)
    del block
    neigh = c[pick[:, :m] + (np.cumsum(counts) - counts)[:, None]]
    del pick
    with np.errstate(invalid="ignore"):  # inf - inf in a row of infinite slack
        decided = (top[:, 1:] - top[:, :-1] > 2 * row_slack[:, None]).all(axis=1)
    if not decided.all():
        rest = ~decided
        c = c[np.repeat(rest, counts)]
        neigh[rest] = _exact_neighbours(points, chunk[rest], c, counts[rest], m)
    return neigh


def _exact_neighbours(
    points: np.ndarray, rows: np.ndarray, c: np.ndarray, counts: np.ndarray, m: int
) -> np.ndarray:
    """The first m of each requested row's candidates by the difference
    form, ties to the lower index: c holds the candidates of points[rows]
    row by row, counts[i] of them for row i, ascending within each row."""
    p, d = points.shape
    r = np.repeat(np.arange(rows.size), counts)
    # the requested rows are gathered once; the two gathers of a slice
    # hold at most max(SORT_ROWS x p, 2 MIN_PAIRS x d) coordinates
    requested = points[rows]
    dist = np.empty(r.size)
    step = max(MIN_PAIRS, SORT_ROWS * p // (2 * d))
    for a in range(0, r.size, step):
        dist[a:a + step] = _difference_form(requested, r[a:a + step], points, c[a:a + step])
    # c ascends within each row, and lexsort is stable: ties go to the lower index
    order = np.lexsort((dist, r))
    first = np.cumsum(counts) - counts
    return c[order[first[:, None] + np.arange(m)]]


def _block_minima(g: np.ndarray, blocks: int) -> np.ndarray:
    """Per row of g, the minimum of each block of columns j = b mod
    `blocks` up to the last whole stride, then the remaining columns.
    These are distinct entries of the row, so their m-th smallest is at
    least the row's m-th smallest: an upper bound found without a
    partition. Strided blocks each hold columns from the whole row, so a
    pool whose order follows its geometry (sorted points) still gives a
    tight bound, where contiguous blocks would not."""
    whole = g.shape[1] // blocks * blocks
    x = g[:, :whole].reshape(g.shape[0], -1, blocks)
    while x.shape[1] > 1:  # halve the strides, folding an odd one in
        half = x.shape[1] // 2
        folded = np.minimum(x[:, :half], x[:, half:2 * half])
        if x.shape[1] % 2:
            np.minimum(folded[:, :1], x[:, 2 * half:], out=folded[:, :1])
        x = folded
    return np.concatenate([x[:, 0], g[:, whole:]], axis=1)


def _synthesize(
    points: np.ndarray,
    pool: np.ndarray,
    m_neighbors: int,
    rng: np.random.Generator,
    out: np.ndarray,
    prov: np.recarray,
) -> None:
    """Fill `out` with interpolants between the minority points of `pool`
    (whose features are `points`), one row per point, and `prov` with each
    point's parents and position. The draw order fixes the random stream:
    every parent slot, then every neighbour slot, then every position.
    Each point is interpolated in float64 and rounded once to `out`'s
    dtype."""
    if pool.size == 1:
        # degenerate neighbourhood: duplicate the lone minority point
        prov.parent_u = prov.parent_v = pool[0]
        prov.r = 0.0
        out[:] = points[0]
        return
    count = out.shape[0]
    m = min(m_neighbors, pool.size - 1)
    slot = rng.integers(pool.size, size=count)
    # neighbour lists only for the rows drawn as parents, in ascending order
    hits = np.bincount(slot, minlength=pool.size)
    parents = np.flatnonzero(hits)
    which = (np.cumsum(hits > 0) - 1)[slot]
    near = neighbours(points, m, parents)[which, rng.integers(m, size=count)]
    # high - low rounds to 1, so r lies in [tiny, 1 - 2**-53]: never 0 or 1
    r = rng.uniform(np.finfo(float).tiny, 1.0, count)
    if not ((r > 0.0) & (r < 1.0)).all():
        raise OversampleError("interpolation position not in (0, 1)")
    prov.r = r
    prov.parent_u, prov.parent_v = pool[slot], pool[near]
    # interpolate's u + (v - u) * r, in its order, SYNTH_ROWS points at a
    # time in float64 scratch, each block then stored into out once
    u = np.empty((min(count, SYNTH_ROWS), points.shape[1]))
    v = np.empty_like(u)
    for a in range(0, count, SYNTH_ROWS):
        end = min(a + SYNTH_ROWS, count)
        ua, va = u[:end - a], v[:end - a]
        # every index is valid; mode clip writes straight into ua and va, raise buffers
        np.take(points, slot[a:end], axis=0, out=ua, mode="clip")
        np.take(points, near[a:end], axis=0, out=va, mode="clip")
        va -= ua
        va *= r[a:end, None]
        va += ua
        out[a:end] = va


# (cluster, minority pool, count) of each pool a label's points come from
Draws = list[tuple[int, np.ndarray, int]]


def _uclso_draws(ds: MultiLabelDataset, assign: ClusterAssignment, l: int) -> Draws:
    """(cluster, minority pool, count) per cluster with a non-zero quota."""
    if assign.assignment.shape[0] != ds.n:
        raise OversampleError("clustering was not computed on this dataset")
    min_idx, maj_idx = minority_class(ds, l)
    min_cluster = assign.assignment[min_idx]
    draws = []
    for p in range(assign.k):
        pool = min_idx[min_cluster == p]
        count = quota(pool.size, min_idx.size, maj_idx.size)
        if count:
            draws.append((p, pool, count))
    return draws


def _smote_draws(ds: MultiLabelDataset, l: int) -> Draws:
    """The whole minority set as one pool (cluster -1), n_maj - n_min points."""
    min_idx, maj_idx = minority_class(ds, l)
    count = max(0, maj_idx.size - min_idx.size)
    return [(-1, min_idx, count)] if count else []


def label_draws(
    ds: MultiLabelDataset,
    cfg: OversampleConfig,
    assign: ClusterAssignment | None,
    l: int,
) -> Draws | LabelUnusableError:
    """The (cluster, minority pool, count) draws the configured mode makes
    for label l, worked out without drawing any point: one per cluster
    with a non-zero quota for uclso, the whole minority set as cluster -1
    for smote, none for none. A label with no minority points gets the
    LabelUnusableError that says so (except in mode none)."""
    if cfg.mode == "none":
        return []
    try:
        if cfg.mode == "uclso":
            return _uclso_draws(ds, assign, l)
        return _smote_draws(ds, l)
    except LabelUnusableError as exc:
        return exc


def synthetic_count(draws: Draws | LabelUnusableError) -> int:
    """Number of points a label_draws result synthesizes."""
    if isinstance(draws, LabelUnusableError):
        return 0
    return sum(count for _, _, count in draws)


def _augment(
    ds: MultiLabelDataset,
    l: int,
    cfg: OversampleConfig,
    draws: Draws,
    out: np.ndarray | None,
) -> AugmentedDataset:
    """Label l's points from its draws, each (finite) pool gathered in turn."""
    total = synthetic_count(draws)
    if out is None:
        out = np.empty((total, ds.d))
    elif out.shape != (total, ds.d):
        raise OversampleError(
            f"output block has shape {out.shape}, label {l} needs {(total, ds.d)}"
        )
    rng = _label_rng(cfg.seed, l)
    provenance = np.recarray(total, dtype=PROVENANCE)
    start = 0
    for cluster, pool, count in draws:
        end = start + count
        provenance.cluster[start:end] = cluster
        _synthesize(ds.features[pool], pool, cfg.m_neighbors, rng, out[start:end],
                    provenance[start:end])
        start = end
    return AugmentedDataset(ds, SyntheticSet(l, out, provenance), l)


def uclso_augment(
    ds: MultiLabelDataset,
    assign: ClusterAssignment,
    l: int,
    cfg: OversampleConfig,
    out: np.ndarray | None = None,
    draws: Draws | None = None,
) -> AugmentedDataset:
    """Cluster-guarded augmentation for one label.

    Each cluster with minority presence contributes its quota of synthetic
    points, interpolated between minority points of that cluster only.
    The points are written into `out` (shape: synthetic count by d) when
    given, else into a new array. `draws`, the label's label_draws result
    when the caller already has it, is not worked out again.
    """
    if draws is None:
        draws = _uclso_draws(ds, assign, l)
    return _augment(ds, l, cfg, draws, out)


def smote_augment(
    ds: MultiLabelDataset,
    l: int,
    cfg: OversampleConfig,
    out: np.ndarray | None = None,
    draws: Draws | None = None,
) -> AugmentedDataset:
    """Global-neighbourhood baseline: neighbours come from the whole
    minority set and exactly n_maj - n_min points are generated, into
    `out` when given, from `draws` as for uclso_augment."""
    if draws is None:
        draws = _smote_draws(ds, l)
    return _augment(ds, l, cfg, draws, out)


def iter_augments(
    ds: MultiLabelDataset,
    cfg: OversampleConfig,
    assign: ClusterAssignment | None = None,
) -> Iterator[AugmentedDataset | LabelUnusableError]:
    """Per label, in label order, the augmentation the configured mode
    makes, or the LabelUnusableError saying why the label has none.
    Labels are produced one at a time, so a caller that writes each one
    out never holds them all."""
    if cfg.mode == "uclso" and assign is None:
        raise OversampleError("uclso mode needs a clustering")
    for l in range(ds.q):
        plan = label_draws(ds, cfg, assign, l)
        if isinstance(plan, LabelUnusableError):
            yield plan
        elif cfg.mode == "uclso":
            yield uclso_augment(ds, assign, l, cfg, draws=plan)
        elif cfg.mode == "smote":
            yield smote_augment(ds, l, cfg, draws=plan)
        else:
            yield _augment(ds, l, cfg, plan, None)
