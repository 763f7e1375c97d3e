"""Multi-label dataset container, summary statistics, label filtering,
cross-validation fold planning and synthetic toy-data generation."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np


class DatasetError(ValueError):
    """Raised when a dataset violates its structural contract."""


@dataclass(frozen=True)
class MultiLabelDataset:
    """Dense feature matrix plus a binary label matrix.

    features : (n, d) float array, every entry finite, as k-means needs
    labels : (n, q) int array with entries in {0, 1}
    feature_names / label_names : column names, no duplicates
    feature_type : "numeric" or "nominal" (source attribute flavour,
        recorded at load time; one-hot encoded columns are numeric either way)
    """

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]
    label_names: tuple[str, ...]
    feature_type: str = "numeric"

    def __post_init__(self):
        features = np.asarray(self.features, dtype=float)
        labels = np.asarray(self.labels, dtype=int)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "label_names", tuple(self.label_names))
        if features.ndim != 2 or labels.ndim != 2:
            raise DatasetError("features and labels must be 2-d matrices")
        n, d = features.shape
        n2, q = labels.shape
        if n < 1 or d < 1 or q < 1:
            raise DatasetError("need at least one row, feature and label")
        if n != n2:
            raise DatasetError(f"row count mismatch: {n} features vs {n2} labels")
        if not np.isin(labels, (0, 1)).all():
            raise DatasetError("labels must contain only 0 or 1")
        if len(self.feature_names) != d:
            raise DatasetError("feature_names length does not match feature columns")
        if len(self.label_names) != q:
            raise DatasetError("label_names length does not match label columns")
        if len(set(self.feature_names)) != d:
            raise DatasetError("duplicate feature names")
        if len(set(self.label_names)) != q:
            raise DatasetError("duplicate label names")
        finite = np.isfinite(features)
        if not finite.all():
            row, col = np.argwhere(~finite)[0]
            raise DatasetError(
                f"feature {self.feature_names[col]!r} holds the non-finite value "
                f"{float(features[row, col])!r} in row {row}"
            )
        features.setflags(write=False)
        labels.setflags(write=False)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def q(self) -> int:
        return self.labels.shape[1]

    def subset(self, rows) -> "MultiLabelDataset":
        """New dataset restricted to the given row indices (order kept)."""
        rows = np.asarray(rows, dtype=int)
        return replace(self, features=self.features[rows], labels=self.labels[rows])


@dataclass(frozen=True)
class DatasetStats:
    instances: int
    inputs: int
    labels: int
    type: str  # the dataset's feature_type, "numeric" or "nominal"
    cardinality: float
    density: float
    distinct_labelsets: int
    proportion_distinct: float
    ir_min: float
    ir_max: float
    ir_avg: float  # min, max and mean over the labels whose IR is defined


@dataclass(frozen=True)
class FoldPlan:
    assignments: tuple  # per repetition, a tuple of index arrays, its folds

    def train_test(self, rep: int, fold: int) -> tuple[np.ndarray, np.ndarray]:
        """Train/test row indices for one cross-validation cell."""
        folds = self.assignments[rep]
        test = folds[fold]
        train = np.concatenate([f for i, f in enumerate(folds) if i != fold])
        return np.sort(train), np.sort(test)


@dataclass(frozen=True)
class ToyConfig:
    """Gaussian-blob generator config.

    minority_rules gives, per label, a mapping from blob index to the
    fraction of that blob's points marked relevant. Blobs absent from a
    mapping contribute no relevant points for that label.
    """

    points_per_blob: tuple[int, ...]
    blob_centers: tuple[tuple[float, ...], ...]
    blob_spreads: tuple[float, ...]
    minority_rules: tuple[dict, ...]
    seed: int = 0

    def __post_init__(self):
        centers = tuple(tuple(float(v) for v in c) for c in self.blob_centers)
        object.__setattr__(self, "blob_centers", centers)
        n_blobs = len(centers)
        if n_blobs < 2:
            raise DatasetError("need at least 2 blobs")
        dims = [len(c) for c in centers]
        if len(set(dims)) > 1 or not dims[0]:
            raise DatasetError(
                f"blob_centers must share one non-zero length, got lengths {dims}"
            )
        counts = tuple(int(c) for c in self.points_per_blob)
        object.__setattr__(self, "points_per_blob", counts)
        spreads = tuple(float(s) for s in self.blob_spreads)
        object.__setattr__(self, "blob_spreads", spreads)
        if len(counts) != n_blobs or len(spreads) != n_blobs:
            raise DatasetError("per-blob settings must match the number of blobs")
        if any(c < 1 for c in counts):
            raise DatasetError("points_per_blob must be positive")
        if any(s <= 0 for s in spreads):
            raise DatasetError("blob spreads must be positive")
        rules = tuple(
            {int(b): float(f) for b, f in rule.items()} for rule in self.minority_rules
        )
        object.__setattr__(self, "minority_rules", rules)
        if not rules:
            raise DatasetError("need at least one label rule")
        for rule in rules:
            for b, f in rule.items():
                if not 0 <= b < n_blobs:
                    raise DatasetError(f"minority rule references unknown blob {b}")
                if not 0.0 < f < 1.0:
                    raise DatasetError(f"minority fraction {f} not in (0, 1)")


def compute_stats(ds: MultiLabelDataset) -> DatasetStats:
    """Summary statistics: cardinality, density, distinct labelsets and
    per-label imbalance ratios (majority count over minority count)."""
    n, q = ds.n, ds.q
    cardinality = float(ds.labels.sum()) / n
    density = cardinality / q
    # tolist() first: tuples of Python ints hash far faster than tuples of
    # numpy scalars, and np.unique(axis=0) is slower still
    distinct = len({tuple(row) for row in ds.labels.tolist()})
    # a label with an empty class has no defined IR and is left out
    irs = [ir for ir in map(label_imbalance_ratio, ds.labels.T) if ir != float("inf")]
    if irs:
        ir_min, ir_max, ir_avg = min(irs), max(irs), float(np.mean(irs))
    else:
        ir_min = ir_max = ir_avg = float("nan")
    return DatasetStats(
        instances=n,
        inputs=ds.d,
        labels=q,
        type=ds.feature_type,
        cardinality=cardinality,
        density=density,
        distinct_labelsets=distinct,
        proportion_distinct=distinct / n,
        ir_min=ir_min,
        ir_max=ir_max,
        ir_avg=ir_avg,
    )


def label_imbalance_ratio(labels_col: np.ndarray) -> float:
    """IR of one binary label column; inf when one class is empty."""
    pos = int(labels_col.sum())
    neg = len(labels_col) - pos
    if min(pos, neg) == 0:
        return float("inf")
    return max(pos, neg) / min(pos, neg)


def filter_labels(
    ds: MultiLabelDataset, max_ir: float = 50.0, min_pos: int = 20
) -> tuple[MultiLabelDataset, list[tuple[str, str, float]]]:
    """Drop labels that are too imbalanced or have too few positives.

    Returns the filtered dataset and a report of (label, reason, value)
    for each dropped label. The feature matrix is unchanged.
    """
    keep = []
    report = []
    for k in range(ds.q):
        col = ds.labels[:, k]
        pos = int(col.sum())
        if pos < min_pos:
            report.append((ds.label_names[k], "min_pos", float(pos)))
            continue
        ir = label_imbalance_ratio(col)
        if ir >= max_ir:
            report.append((ds.label_names[k], "max_ir", ir))
            continue
        keep.append(k)
    if not keep:
        raise DatasetError("all labels dropped by filtering; dataset unusable")
    label_names = tuple(ds.label_names[k] for k in keep)
    return replace(ds, labels=ds.labels[:, keep], label_names=label_names), report


def make_fold_plan(n: int, reps: int, folds: int, seed: int) -> FoldPlan:
    """Shuffled fold partitions, one independent shuffle per repetition.

    Fold sizes differ by at most 1; regenerating with the same seed yields
    identical assignments.
    """
    if reps < 1:
        raise DatasetError(f"need at least 1 repetition, got {reps}")
    if folds < 2:
        raise DatasetError("need at least 2 folds")
    if n < folds:
        raise DatasetError(f"cannot split {n} rows into {folds} folds")
    rng = np.random.default_rng(seed)
    assignments = []
    for _ in range(reps):
        perm = rng.permutation(n)
        parts = tuple(np.sort(p) for p in np.array_split(perm, folds))
        assignments.append(parts)
    return FoldPlan(tuple(assignments))


def generate_toy(cfg: ToyConfig) -> MultiLabelDataset:
    """Gaussian blobs with per-blob, per-label relevance fractions."""
    rng = np.random.default_rng(cfg.seed)
    dim = len(cfg.blob_centers[0])
    blocks = []
    blob_of_row = []
    for b, (count, center, spread) in enumerate(
        zip(cfg.points_per_blob, cfg.blob_centers, cfg.blob_spreads)
    ):
        blocks.append(np.asarray(center) + spread * rng.standard_normal((count, dim)))
        blob_of_row.extend([b] * count)
    features = np.vstack(blocks)
    blob_of_row = np.asarray(blob_of_row)
    n = features.shape[0]
    q = len(cfg.minority_rules)
    labels = np.zeros((n, q), dtype=int)
    for l, rule in enumerate(cfg.minority_rules):
        for b, frac in sorted(rule.items()):
            mask = blob_of_row == b
            labels[mask, l] = (rng.random(mask.sum()) < frac).astype(int)
    return MultiLabelDataset(
        features,
        labels,
        tuple(f"x{j}" for j in range(dim)),
        tuple(f"label_{l}" for l in range(q)),
    )


def scale_min_max(ds: MultiLabelDataset) -> MultiLabelDataset:
    """Optional per-column min-max scaling; constant columns map to 0. A
    column whose range hi - lo overflows a float cannot be scaled and is
    rejected, naming the column and its range."""
    lo = ds.features.min(axis=0)
    hi = ds.features.max(axis=0)
    with np.errstate(over="ignore"):
        width = hi - lo
    wide = np.flatnonzero(~np.isfinite(width))
    if wide.size:
        j = wide[0]
        raise DatasetError(
            f"feature {ds.feature_names[j]!r} ranges from {float(lo[j])!r} to "
            f"{float(hi[j])!r}, wider than the largest float, so it cannot be scaled"
        )
    span = np.where(hi > lo, width, 1.0)
    scaled = (ds.features - lo) / span
    return replace(ds, features=scaled)


def check_row_norms(X: np.ndarray, limit: float, reason: str,
                    rows: np.ndarray | None = None) -> None:
    """Raise DatasetError if a row of X has a Euclidean norm past limit,
    naming the first row of largest norm (by its entry in `rows`, the
    dataset row of each row of X, when given), its norm and the limit,
    `reason` saying what the limit keeps. The squared norms are summed row
    by row, with no temporary the size of X. Past about 1.3e154 they
    overflow: the first such row is named, its norm worked out without
    overflow."""
    with np.errstate(over="ignore"):
        squares = np.einsum("ij,ij->i", X, X)
    row = int(np.argmax(squares))
    norm = math.hypot(*X[row])
    if norm > limit:
        if rows is not None:
            row = int(rows[row])
        raise DatasetError(
            f"row {row} has norm {norm!r}, past {limit!r}, the largest {reason}: "
            "rescale the features, for example by scale: minmax"
        )
