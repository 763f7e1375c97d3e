"""Label-specific synthetic minority generation.

Two flavours share the same interpolation primitive: the cluster-guarded
generator keeps parent pairs inside one k-means cluster with per-cluster
quotas proportional to the cluster's minority share, while the plain
SMOTE baseline draws neighbours from the global minority set.
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


# Rows of the pool-by-pool distance matrix searched at a time: bounds the
# index buffer of the partial selection.
SORT_ROWS = 256


def neighbours(points: np.ndarray, m: int) -> np.ndarray:
    """Indices of each point's m nearest other points, nearest first.

    Squared distances come from one pool-by-pool buffer built in place.
    Each chunk of SORT_ROWS rows is partially selected (argpartition), and
    only the m selected entries of a row are sorted, by distance and then
    index. A row with more than m entries at or below its m-th distance,
    or a NaN there, is stable-argsorted in full. The result is exactly the
    first m columns of one full stable argsort of each row (NaN distances
    last, as numpy sorts them)."""
    sq = (points * points).sum(axis=1)
    d2 = 2.0 * points @ points.T
    np.subtract(sq[:, None], d2, out=d2)
    d2 += sq[None, :]
    np.fill_diagonal(d2, np.inf)
    neigh = np.empty((points.shape[0], m), dtype=np.intp)
    for start in range(0, points.shape[0], SORT_ROWS):
        chunk = d2[start:start + SORT_ROWS]
        row = np.arange(chunk.shape[0])[:, None]
        near = np.argpartition(chunk, m - 1, axis=1)[:, :m]
        kth = chunk[row, near[:, m - 1:]]
        # argpartition picks arbitrarily among entries tied at (or NaN as) a
        # row's m-th distance: those rows take the full stable sort instead
        tied = np.flatnonzero((chunk <= kth).sum(axis=1) != m)
        if tied.size:
            near[tied] = np.argsort(chunk[tied], axis=1, kind="stable")[:, :m]
        # a sorted copy: the chunk-wide index buffer is freed here
        near = np.sort(near, axis=1)
        order = np.argsort(chunk[row, near], axis=1, kind="stable")
        neigh[start:start + SORT_ROWS] = near[row, order]
    return neigh


def _synthesize(
    features: np.ndarray,
    pool: np.ndarray,
    m_neighbors: int,
    rng: np.random.Generator,
    out: np.ndarray,
    prov: np.recarray,
) -> None:
    """Fill `out` with interpolants between minority points of `pool`, one
    row per point, and `prov` with each point's parents and position. The
    draw order fixes the random stream: every parent slot, then every
    neighbour slot, then every position."""
    if pool.size == 1:
        # degenerate neighbourhood: duplicate the lone minority point
        prov.parent_u = prov.parent_v = pool[0]
        prov.r = 0.0
        out[:] = features[pool[0]]
        return
    count = out.shape[0]
    m = min(m_neighbors, pool.size - 1)
    slot = rng.integers(pool.size, size=count)
    near = neighbours(features[pool], m)[slot, rng.integers(m, size=count)]
    # high - low rounds to 1, so r lies in [tiny, 1 - 2**-53]: never 0 or 1
    prov.r = rng.uniform(np.finfo(float).tiny, 1.0, count)
    u, v = pool[slot], pool[near]
    prov.parent_u, prov.parent_v = u, v
    out[:] = interpolate(features[u], features[v], prov.r)


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
        _synthesize(
            ds.features, pool, cfg.m_neighbors, rng, out[start:end], provenance[start:end]
        )
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
    out: np.ndarray | None = None,
    draws: list[Draws | LabelUnusableError] | None = None,
) -> Iterator[AugmentedDataset | LabelUnusableError]:
    """Per label, in label order, the augmentation the configured mode
    makes, or the LabelUnusableError saying why the label has none.
    Labels are produced one at a time, so a caller that writes each one
    out never holds them all. `draws` holds each label's label_draws
    result when the caller has worked them out. With `out`, label l's
    points are written into its next synthetic_count(draws[l]) rows."""
    if cfg.mode == "uclso" and assign is None:
        raise OversampleError("uclso mode needs a clustering")
    start = 0
    for l in range(ds.q):
        plan = label_draws(ds, cfg, assign, l) if draws is None else draws[l]
        if isinstance(plan, LabelUnusableError):
            yield plan
            continue
        block = None
        if out is not None:
            count = synthetic_count(plan)
            block = out[start:start + count]
            start += count
        if cfg.mode == "uclso":
            yield uclso_augment(ds, assign, l, cfg, block, plan)
        elif cfg.mode == "smote":
            yield smote_augment(ds, l, cfg, block, plan)
        else:
            yield _augment(ds, l, cfg, plan, block)
