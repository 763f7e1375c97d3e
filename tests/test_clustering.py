import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uclso import clustering
from uclso.clustering import ClusteringError, kmeans
from uclso.dataset import DatasetError


class TestKmeans:
    def test_k1_centroid_is_mean(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 3))
        res = kmeans(X, 1, seed=0)
        assert np.allclose(res.centroids[0], X.mean(axis=0))
        assert (res.assignment == 0).all()

    def test_k_equals_n(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(8, 2)) * 10
        res = kmeans(X, 8, seed=3)
        assert res.inertia == pytest.approx(0.0, abs=1e-12)
        assert sorted(res.assignment) == list(range(8))

    def test_two_blob_recovery(self, two_blob_features):
        res = kmeans(two_blob_features, 2, seed=5)
        first, second = res.assignment[:50], res.assignment[50:]
        assert len(set(first)) == 1 and len(set(second)) == 1
        assert first[0] != second[0]
        # brute-force nearest-centroid check
        d2 = ((two_blob_features[:, None, :] - res.centroids[None]) ** 2).sum(axis=2)
        assert np.array_equal(res.assignment, d2.argmin(axis=1))

    def test_inertia_matches_recomputation(self, two_blob_features):
        res = kmeans(two_blob_features, 3, seed=2)
        d2 = ((two_blob_features[:, None, :] - res.centroids[None]) ** 2).sum(axis=2)
        recomputed = d2[np.arange(len(two_blob_features)), res.assignment].sum()
        assert res.inertia == pytest.approx(recomputed, rel=1e-9)

    def test_inertia_monotone(self, two_blob_features):
        for seed in range(20):
            res = kmeans(two_blob_features, 4, seed=seed)
            diffs = np.diff(res.inertia_history)
            assert (diffs <= 1e-9).all()

    def test_deterministic_under_seed(self, two_blob_features):
        a = kmeans(two_blob_features, 3, seed=9)
        b = kmeans(two_blob_features, 3, seed=9)
        assert np.array_equal(a.assignment, b.assignment)
        assert np.array_equal(a.centroids, b.centroids)

    def test_permutation_stability_up_to_relabeling(self, two_blob_features):
        # well-separated blobs: the optimum is found from any row order
        rng = np.random.default_rng(17)
        perm = rng.permutation(len(two_blob_features))
        a = kmeans(two_blob_features, 2, seed=4)
        b = kmeans(two_blob_features[perm], 2, seed=4)
        unpermuted = np.empty_like(b.assignment)
        unpermuted[perm] = b.assignment
        # same partition up to cluster relabeling
        mapping = {}
        for ida, idb in zip(a.assignment, unpermuted):
            mapping.setdefault(ida, idb)
            assert mapping[ida] == idb

    def test_no_empty_clusters_with_duplicates(self):
        X = np.array([[0.0, 0.0]] * 5 + [[10.0, 10.0]] * 5)
        res = kmeans(X, 3, seed=0)
        assert set(res.assignment) == {0, 1, 2}

    def test_rejects_k_greater_than_n(self):
        with pytest.raises(ClusteringError):
            kmeans(np.zeros((3, 2)), 4, seed=0)

    def test_rejects_non_finite(self):
        X = np.array([[0.0, np.nan], [1.0, 1.0]])
        with pytest.raises(ClusteringError, match="finite"):
            kmeans(X, 1, seed=0)

    def test_rejects_rows_past_the_distance_limit(self, two_blob_features):
        # at 1e160 every squared norm overflows, and k-means once returned
        # clusters of 99 and 1 rows, a nan inertia and 20 RuntimeWarnings.
        # The first row of largest norm, row 0, is named instead, with no
        # warning
        X = two_blob_features * 1e160
        message = (f"row 0 has norm {math.hypot(*X[0])!r}, past 4.740375954054588e+153, the "
                   "largest whose squared distances stay finite: rescale the features, for "
                   "example by scale: minmax")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DatasetError) as err:
                kmeans(X, 2, seed=5)
        assert str(err.value) == message

    def test_row_at_the_distance_limit_clusters(self):
        # two rows DISTANCE_NORM_LIMIT apart: squared distance max / 8
        limit = clustering.DISTANCE_NORM_LIMIT
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = kmeans(np.array([[0.0, 0.0], [0.0, limit]]), 2, seed=0)
        assert sorted(res.assignment) == [0, 1] and res.inertia == 0.0
        above = math.nextafter(limit, math.inf)
        with pytest.raises(DatasetError, match="^row 1 has norm "):
            kmeans(np.array([[0.0, 0.0], [0.0, above]]), 2, seed=0)


@st.composite
def duplicated_points(draw):
    """(X, k): up to 12 rows drawn from a few distinct grid points, so most
    rows have duplicates; k from 1 to n, and k = n half the time."""
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 3))
    distinct = draw(st.integers(1, n))
    values = draw(st.lists(st.integers(-3, 3), min_size=distinct * d, max_size=distinct * d))
    pick = draw(st.lists(st.integers(0, distinct - 1), min_size=n, max_size=n))
    X = np.array(values, dtype=float).reshape(distinct, d)[pick]
    k = draw(st.one_of(st.just(n), st.integers(1, n)))
    return X, k


def masked_mean_kmeans(X, k, seed):
    """kmeans with the masked-mean Lloyd update that the sorted gather
    replaced, kept as the reference it must agree with bit for bit."""
    rng = np.random.default_rng(seed)
    x_sq = (X * X).sum(axis=1)
    centroids = clustering._kmeanspp_init(X, x_sq, k, rng)
    rows = np.arange(X.shape[0])
    history = []
    while True:
        assignment, centroids, inertia, _ = clustering._assign_with_repair(
            X, x_sq, centroids, rows
        )
        history.append(inertia)
        new_centroids = centroids.copy()
        for j in range(k):
            new_centroids[j] = X[assignment == j].mean(axis=0)
        shift = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        if shift < clustering.TOL or len(history) >= clustering.MAX_ITER:
            return assignment, centroids, tuple(history)
        centroids = new_centroids


@st.composite
def scaled_grids(draw):
    """(X, k): up to 200 rows on an integer grid times a power of ten, so
    that a cluster's sum rounds differently when its rows are added in
    another order; k from 1 to 12."""
    n = draw(st.integers(1, 200))
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.integers(-40, 41, size=(n, d)) * 10.0**draw(st.integers(-30, 30))
    return X, draw(st.integers(1, min(n, 12)))


class TestKmeansProperties:
    @given(data=duplicated_points(), seed=st.integers(0, 2**16))
    @settings(max_examples=200, deadline=None)
    def test_k_populated_clusters_and_inertia_never_rises(self, data, seed):
        X, k = data
        res = kmeans(X, k, seed=seed)
        assert np.array_equal(np.bincount(res.assignment, minlength=k) > 0, np.ones(k, bool))
        history = np.array(res.inertia_history)
        assert (np.diff(history) <= 1e-9 * (1.0 + history[0])).all()
        assert res.inertia == history[-1]
        if k == X.shape[0]:
            assert res.inertia == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.seeds
    @given(seed=st.integers(0, 2**32 - 1), exponent=st.integers(-150, 150),
           n=st.integers(1, 60), d=st.integers(1, 6), k=st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_distance_pass_bits_equal_doubling_the_data_first(self, seed, exponent, n, d, k):
        # the cross term doubles X @ C^T, where it once doubled X: at these
        # scales every product and partial sum is a normal float, where
        # doubling is exact, so every bit of the result stays the same
        def doubled_data_first(X, x_sq, centroids):
            d2 = (x_sq[:, None] - 2.0 * X @ centroids.T
                  + (centroids * centroids).sum(axis=1)[None, :])
            return np.maximum(d2, 0.0)

        rng = np.random.default_rng(seed)
        X = rng.integers(-40, 41, size=(n, d)) / 8 * 10.0**exponent
        k = min(k, n)
        got = kmeans(X, k, seed=seed)
        with mock.patch.object(clustering, "_sq_dists", doubled_data_first):
            want = kmeans(X, k, seed=seed)
        assert got.assignment.tobytes() == want.assignment.tobytes()
        assert got.centroids.tobytes() == want.centroids.tobytes()
        assert got.inertia_history == want.inertia_history
        assert got.iterations_run == want.iterations_run

    @pytest.mark.seeds
    @given(data=duplicated_points() | scaled_grids(), seed=st.integers(0, 2**16))
    @settings(max_examples=200, deadline=None)
    def test_gathered_update_bits_equal_the_masked_mean(self, data, seed):
        # each centroid sums its cluster's rows in row order, as
        # X[assignment == j].mean(axis=0) does, so every bit is the same
        X, k = data
        got = kmeans(X, k, seed=seed)
        assignment, centroids, history = masked_mean_kmeans(X, k, seed)
        assert got.assignment.tobytes() == assignment.tobytes()
        assert got.centroids.tobytes() == centroids.tobytes()
        assert got.inertia_history == history
        assert got.iterations_run == len(history)


class TestClusterMembers:
    def test_members(self, two_blob_features):
        res = kmeans(two_blob_features, 2, seed=5)
        m0 = np.flatnonzero(res.assignment == 0)
        m1 = np.flatnonzero(res.assignment == 1)
        assert np.array_equal(np.sort(np.concatenate([m0, m1])), np.arange(100))

    def test_partition_over_all_clusters(self, two_blob_features):
        # every row in exactly one of the k clusters, and none of them empty
        res = kmeans(two_blob_features, 5, seed=1)
        assert res.assignment.shape == (100,)
        assert np.array_equal(np.unique(res.assignment), np.arange(5))
