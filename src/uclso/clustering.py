"""K-means partitioning of the input space (k-means++ init, Lloyd updates).

One clustering is computed per training set and shared, read-only, across
all labels. Distance ties break toward the lowest cluster id and every
step is deterministic under the seed. A Lloyd update sorts the rows by
cluster once and sums each cluster's gathered rows in row order, so every
centroid keeps the bits of the masked mean X[assignment == j].mean(axis=0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# Lloyd iterations stop once no centroid moves by TOL or more, or after
# MAX_ITER iterations.
MAX_ITER = 300
TOL = 1e-6


class ClusteringError(ValueError):
    pass


@dataclass(frozen=True)
class ClusterAssignment:
    k: int
    assignment: np.ndarray  # (n,) cluster ids in [0, k)
    centroids: np.ndarray  # (k, d)
    inertia: float
    iterations_run: int
    inertia_history: tuple[float, ...] = ()

    def __post_init__(self):
        self.assignment.setflags(write=False)
        self.centroids.setflags(write=False)


def _sq_dists(X: np.ndarray, x_sq: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # (n, k) squared Euclidean distances, with x_sq the squared norms of
    # X's rows; clip guards tiny negatives. Doubling the (n, k) product,
    # not X, spares a scaled copy of X; doubling is exact, so the bits are
    # those of (2X) @ C^T wherever the products are normal floats
    d2 = (
        x_sq[:, None]
        - 2.0 * (X @ centroids.T)
        + (centroids * centroids).sum(axis=1)[None, :]
    )
    return np.maximum(d2, 0.0)


def _kmeanspp_init(
    X: np.ndarray, x_sq: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    n = X.shape[0]
    centroids = np.empty((k, X.shape[1]))
    first = rng.integers(n)
    centroids[0] = X[first]
    closest = _sq_dists(X, x_sq, centroids[0:1])[:, 0]
    for j in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            # all remaining points coincide with a chosen centroid
            idx = rng.integers(n)
        else:
            r = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(closest), r, side="right"))
            idx = min(idx, n - 1)
        centroids[j] = X[idx]
        closest = np.minimum(closest, _sq_dists(X, x_sq, centroids[j:j + 1])[:, 0])
    return centroids


def _assign_with_repair(
    X: np.ndarray, x_sq: np.ndarray, centroids: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """Nearest-centroid assignment (ties to the lowest id), with `rows`
    the indices 0..n-1 of X's rows. Empty clusters are repaired by moving
    their centroid onto the point farthest from its own centroid and
    force-assigning that point, which keeps k populated clusters and never
    increases the total cost. Returns the assignment, the centroids, the
    inertia and each cluster's row count."""
    k = centroids.shape[0]
    d2 = _sq_dists(X, x_sq, centroids)
    assignment = d2.argmin(axis=1)
    counts = np.bincount(assignment, minlength=k)
    if not counts.all():
        own = d2[rows, assignment].copy()
        centroids = centroids.copy()
        for e in np.flatnonzero(counts == 0):
            # never drain a singleton cluster while filling another
            candidates = np.flatnonzero(counts[assignment] > 1)
            if candidates.size == 0:
                break
            j = int(candidates[own[candidates].argmax()])
            counts[assignment[j]] -= 1
            counts[e] += 1
            assignment[j] = e
            centroids[e] = X[j]
            own[j] = 0.0
        d2 = _sq_dists(X, x_sq, centroids)
    inertia = float(d2[rows, assignment].sum())
    return assignment, centroids, inertia, counts


def check_k(k: int, n: int) -> None:
    """Raise ClusteringError unless k-means can make k clusters of n rows."""
    if not 1 <= k <= n:
        raise ClusteringError(f"k={k} must be in [1, {n}]")


def kmeans(X: np.ndarray, k: int, seed: int) -> ClusterAssignment:
    """Lloyd iterations from a k-means++ start until the centroid shift
    drops below TOL or MAX_ITER is reached."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ClusteringError("X must be a non-empty 2-d matrix")
    # X need not come from a MultiLabelDataset: kmeans takes any matrix
    if not np.isfinite(X).all():
        raise ClusteringError("non-finite entries in X")
    check_k(k, X.shape[0])
    rng = np.random.default_rng(seed)
    x_sq = (X * X).sum(axis=1)  # fixed across every distance pass
    centroids = _kmeanspp_init(X, x_sq, k, rng)
    rows = np.arange(X.shape[0])
    # cluster ids as a key of at most 16 bits when k allows, which numpy's
    # stable sort orders by radix sort
    key = np.min_scalar_type(k - 1)
    history = []
    while True:
        assignment, centroids, inertia, counts = _assign_with_repair(
            X, x_sq, centroids, rows
        )
        history.append(inertia)
        # each cluster's rows in row order, so each sum adds the rows
        # X[assignment == j] holds in its order, as its mean(axis=0) does
        order = np.argsort(assignment.astype(key), kind="stable")
        new_centroids = np.empty_like(centroids)
        end = 0
        for j, count in enumerate(counts.tolist()):
            start, end = end, end + count
            np.add.reduce(X.take(order[start:end], axis=0), axis=0, out=new_centroids[j])
        new_centroids /= counts[:, None]
        shift = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        if shift < TOL or len(history) >= MAX_ITER:
            break
        centroids = new_centroids
    return ClusterAssignment(
        k=k,
        assignment=assignment,
        centroids=centroids,
        inertia=inertia,
        iterations_run=len(history),
        inertia_history=tuple(history),
    )
