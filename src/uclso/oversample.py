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


@dataclass(frozen=True)
class Provenance:
    """Where one synthetic point came from: its cluster (-1 for the global
    baseline), its two parent row indices and the interpolation position."""

    cluster: int
    parent_u: int
    parent_v: int
    r: float


@dataclass(frozen=True)
class SyntheticSet:
    label_index: int
    points: np.ndarray  # (m, d)
    provenance: tuple[Provenance, ...]

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class AugmentedDataset:
    base: MultiLabelDataset
    extra: SyntheticSet
    label_index: int

    def features(self) -> np.ndarray:
        """Base rows followed by synthetic rows."""
        if len(self.extra) == 0:
            return self.base.features
        return np.vstack([self.base.features, self.extra.points])

    def label_vector(self) -> np.ndarray:
        """Binary target for this label; synthetic rows are all relevant."""
        base = self.base.labels[:, self.label_index]
        if len(self.extra) == 0:
            return base
        return np.concatenate([base, np.ones(len(self.extra), dtype=int)])


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


def interpolate(u: np.ndarray, v: np.ndarray, r: float) -> np.ndarray:
    """Point at fraction r of the way from u to v."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise OversampleError(f"dimension mismatch: {u.shape} vs {v.shape}")
    if not 0.0 < r < 1.0:
        raise OversampleError(f"r={r} not in (0, 1)")
    return u + (v - u) * r


def _label_rng(seed: int, l: int) -> np.random.Generator:
    # independent substream per label: results do not depend on the order
    # in which labels are processed
    return np.random.default_rng([seed, l])


def _open_unit(rng: np.random.Generator) -> float:
    r = float(rng.random())
    while r == 0.0:
        r = float(rng.random())
    return r


def _synthesize(
    features: np.ndarray,
    pool: np.ndarray,
    count: int,
    m_neighbors: int,
    rng: np.random.Generator,
    cluster: int,
    points: list,
    provenance: list,
) -> None:
    """Append `count` interpolants between minority points of `pool`."""
    if pool.size == 1:
        # degenerate neighbourhood: duplicate the lone minority point
        only = int(pool[0])
        for _ in range(count):
            points.append(features[only].copy())
            provenance.append(Provenance(cluster, only, only, 0.0))
        return
    sub = features[pool]
    d2 = (
        (sub * sub).sum(axis=1)[:, None]
        - 2.0 * sub @ sub.T
        + (sub * sub).sum(axis=1)[None, :]
    )
    np.fill_diagonal(d2, np.inf)
    m = min(m_neighbors, pool.size - 1)
    # stable ordering keeps neighbour lists deterministic under distance ties
    neigh = np.argsort(d2, axis=1, kind="stable")[:, :m]
    for _ in range(count):
        u_local = int(rng.integers(pool.size))
        v_local = int(neigh[u_local, int(rng.integers(m))])
        r = _open_unit(rng)
        u_idx = int(pool[u_local])
        v_idx = int(pool[v_local])
        points.append(interpolate(features[u_idx], features[v_idx], r))
        provenance.append(Provenance(cluster, u_idx, v_idx, r))


def _pack(
    ds: MultiLabelDataset, l: int, points: list, provenance: list
) -> AugmentedDataset:
    pts = (
        np.asarray(points) if points else np.empty((0, ds.d))
    )
    return AugmentedDataset(ds, SyntheticSet(l, pts, tuple(provenance)), l)


def uclso_augment(
    ds: MultiLabelDataset,
    assign: ClusterAssignment,
    l: int,
    cfg: OversampleConfig,
) -> AugmentedDataset:
    """Cluster-guarded augmentation for one label.

    Each cluster with minority presence contributes its quota of synthetic
    points, interpolated between minority points of that cluster only.
    """
    if assign.assignment.shape[0] != ds.n:
        raise OversampleError("clustering was not computed on this dataset")
    min_idx, maj_idx = minority_class(ds, l)
    min_cluster = assign.assignment[min_idx]
    rng = _label_rng(cfg.seed, l)
    points: list = []
    provenance: list = []
    for p in range(assign.k):
        pool = min_idx[min_cluster == p]
        count = quota(pool.size, min_idx.size, maj_idx.size)
        if count == 0:
            continue
        _synthesize(
            ds.features, pool, count, cfg.m_neighbors, rng, p, points, provenance
        )
    return _pack(ds, l, points, provenance)


def smote_augment(
    ds: MultiLabelDataset, l: int, cfg: OversampleConfig
) -> AugmentedDataset:
    """Global-neighbourhood baseline: neighbours come from the whole
    minority set and exactly n_maj - n_min points are generated."""
    min_idx, maj_idx = minority_class(ds, l)
    count = max(0, maj_idx.size - min_idx.size)
    rng = _label_rng(cfg.seed, l)
    points: list = []
    provenance: list = []
    if count:
        _synthesize(
            ds.features, min_idx, count, cfg.m_neighbors, rng, -1, points, provenance
        )
    return _pack(ds, l, points, provenance)


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
        try:
            if cfg.mode == "uclso":
                aug = uclso_augment(ds, assign, l, cfg)
            elif cfg.mode == "smote":
                aug = smote_augment(ds, l, cfg)
            else:
                aug = _pack(ds, l, [], [])
        except LabelUnusableError as exc:
            aug = exc
        yield aug


def augment_all(
    ds: MultiLabelDataset,
    cfg: OversampleConfig,
    assign: ClusterAssignment | None = None,
) -> list[AugmentedDataset]:
    """One augmentation per label, per the configured mode. Labels without
    minority points get an empty synthetic set."""
    return [
        _pack(ds, l, [], []) if isinstance(aug, LabelUnusableError) else aug
        for l, aug in enumerate(iter_augments(ds, cfg, assign))
    ]
