"""K-means partitioning of the input space (k-means++ init, Lloyd updates).

One clustering is computed per training set and shared, read-only, across
all labels. Distance ties break toward the lowest cluster id and every
step is deterministic under the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


def _sq_dists(X: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # (n, k) squared Euclidean distances; clip guards tiny negatives
    d2 = (
        (X * X).sum(axis=1)[:, None]
        - 2.0 * X @ centroids.T
        + (centroids * centroids).sum(axis=1)[None, :]
    )
    return np.maximum(d2, 0.0)


def _kmeanspp_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    centroids = np.empty((k, X.shape[1]))
    first = rng.integers(n)
    centroids[0] = X[first]
    closest = _sq_dists(X, centroids[0:1])[:, 0]
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
        closest = np.minimum(closest, _sq_dists(X, centroids[j:j + 1])[:, 0])
    return centroids


def _assign_with_repair(
    X: np.ndarray, centroids: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Nearest-centroid assignment (ties to the lowest id). Empty clusters
    are repaired by moving their centroid onto the point farthest from its
    own centroid and force-assigning that point, which keeps k populated
    clusters and never increases the total cost."""
    n = X.shape[0]
    k = centroids.shape[0]
    d2 = _sq_dists(X, centroids)
    assignment = d2.argmin(axis=1)
    counts = np.bincount(assignment, minlength=k)
    empties = np.flatnonzero(counts == 0)
    if empties.size:
        own = d2[np.arange(n), assignment].copy()
        centroids = centroids.copy()
        for e in empties:
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
        d2 = _sq_dists(X, centroids)
    inertia = float(d2[np.arange(n), assignment].sum())
    return assignment, centroids, inertia


def kmeans(
    X: np.ndarray,
    k: int,
    seed: int,
    max_iter: int = 300,
    tol: float = 1e-6,
) -> ClusterAssignment:
    """Lloyd iterations from a k-means++ start until the centroid shift
    drops below tol or max_iter is reached."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ClusteringError("X must be a non-empty 2-d matrix")
    if not np.isfinite(X).all():
        raise ClusteringError("non-finite entries in X")
    n = X.shape[0]
    if not 1 <= k <= n:
        raise ClusteringError(f"k={k} must be in [1, {n}]")
    rng = np.random.default_rng(seed)
    centroids = _kmeanspp_init(X, k, rng)
    history = []
    iterations = 0
    while True:
        assignment, centroids, inertia = _assign_with_repair(X, centroids)
        history.append(inertia)
        iterations += 1
        new_centroids = centroids.copy()
        for j in range(k):
            members = assignment == j
            new_centroids[j] = X[members].mean(axis=0)
        shift = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        if shift < tol or iterations >= max_iter:
            break
        centroids = new_centroids
    return ClusterAssignment(
        k=k,
        assignment=assignment,
        centroids=centroids,
        inertia=inertia,
        iterations_run=iterations,
        inertia_history=tuple(history),
    )
