import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uclso import experiment
from uclso.clustering import kmeans
from uclso.dataset import DatasetError, MultiLabelDataset, generate_toy, make_fold_plan
from uclso.experiment import MethodSpec, run_cv
from uclso.linear import TrainConfig, fit_lockstep
from uclso import oversample
from uclso.oversample import (
    LabelUnusableError,
    OversampleConfig,
    OversampleError,
    augment,
    interpolate,
    iter_augments,
    label_draws,
    minority_class,
    neighbours,
    quota,
    smote_augment,
    synthetic_count,
    uclso_augment,
)

from conftest import fig1_toy_config, random_toy_config


def make_ds(features, labels):
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels)
    return MultiLabelDataset(
        features,
        labels,
        tuple(f"x{i}" for i in range(features.shape[1])),
        tuple(f"l{i}" for i in range(labels.shape[1])),
    )


class TestMinorityClass:
    def test_definition(self):
        ds = make_ds(np.zeros((3, 2)), [[1], [0], [0]])
        mn, mj = minority_class(ds, 0)
        assert mn.tolist() == [0] and mj.tolist() == [1, 2]

    def test_all_ones_column(self):
        ds = make_ds(np.zeros((3, 2)), [[1], [1], [1]])
        mn, mj = minority_class(ds, 0)
        assert mn.tolist() == [0, 1, 2] and mj.size == 0

    def test_empty_minority_signalled(self):
        ds = make_ds(np.zeros((3, 2)), [[0], [0], [0]])
        with pytest.raises(LabelUnusableError):
            minority_class(ds, 0)

    def test_count_oracle(self):
        rng = np.random.default_rng(8)
        labels = np.zeros((2417, 1), dtype=int)
        pos = rng.choice(2417, size=200, replace=False)
        labels[pos, 0] = 1
        ds = make_ds(rng.normal(size=(2417, 3)), labels)
        mn, mj = minority_class(ds, 0)
        assert mn.size == 200 and mj.size == 2217


class TestQuota:
    def test_hand_arithmetic(self):
        assert quota(4, 10, 90) == 32  # ceil(4 * 80/10)
        assert quota(6, 10, 90) == 48
        assert quota(3, 7, 100) == math.ceil(3 * 93 / 7)

    def test_zero_share(self):
        assert quota(0, 10, 90) == 0

    def test_balanced(self):
        assert quota(4, 10, 10) == 0
        assert quota(4, 10, 5) == 0

    def test_rejects_zero_minority(self):
        with pytest.raises(OversampleError):
            quota(0, 0, 10)

    @pytest.mark.parametrize("n_lp", [-1, -3])
    def test_rejects_negative_share(self, n_lp):
        with pytest.raises(OversampleError, match="^n_lp must be >= 0$"):
            quota(n_lp, 5, 10)

    @given(
        n_min=st.integers(1, 500),
        n_maj=st.integers(0, 2000),
        frac=st.floats(0, 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_ceiling_formula(self, n_min, n_maj, frac):
        n_lp = int(round(frac * n_min))
        expected = (
            math.ceil(n_lp * (n_maj - n_min) / n_min)
            if n_maj > n_min and n_lp > 0
            else 0
        )
        assert quota(n_lp, n_min, n_maj) == expected


class TestInterpolate:
    def test_hand_arithmetic(self):
        assert interpolate(np.array([0.0, 0.0]), np.array([2.0, 4.0]), 0.5).tolist() == [1.0, 2.0]

    def test_endpoints_as_limits(self):
        u, v = np.array([1.0, -1.0]), np.array([3.0, 5.0])
        assert np.allclose(interpolate(u, v, 1e-12), u, atol=1e-10)
        assert np.allclose(interpolate(u, v, 1 - 1e-12), v, atol=1e-10)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(OversampleError, match="dimension"):
            interpolate(np.zeros(2), np.zeros(3), 0.5)

    def test_rejects_r_out_of_range(self):
        with pytest.raises(OversampleError):
            interpolate(np.zeros(2), np.ones(2), 1.0)

    def test_rows_equal_scalar_calls(self):
        rng = np.random.default_rng(12)
        u, v = rng.normal(size=(50, 4)), rng.normal(size=(50, 4))
        r = rng.uniform(1e-9, 1.0, 50)
        rows = interpolate(u, v, r)
        for i in range(50):
            assert np.array_equal(rows[i], interpolate(u[i], v[i], float(r[i])))

    @pytest.mark.parametrize("bad", [0.0, 1.0])
    def test_rejects_r_array_out_of_range(self, bad):
        r = np.array([0.5, bad, 0.5])
        with pytest.raises(OversampleError, match="not in"):
            interpolate(np.zeros((3, 2)), np.ones((3, 2)), r)

    def test_rejects_one_r_per_row_mismatch(self):
        with pytest.raises(OversampleError, match="dimension"):
            interpolate(np.zeros((3, 2)), np.ones((3, 2)), np.full(2, 0.5))


def segment_residual(point, u, v, r):
    return np.abs(point - (u + (v - u) * r)).max()


class TestUclsoAugment:
    def test_balanced_label_empty_extra(self):
        rng = np.random.default_rng(0)
        labels = np.array([[1]] * 10 + [[0]] * 10)
        ds = make_ds(rng.normal(size=(20, 2)), labels)
        assign = kmeans(ds.features, 2, seed=0)
        aug = uclso_augment(ds, assign, 0, OversampleConfig(k_clusters=2, seed=1))
        assert len(aug.extra) == 0
        assert aug.base is ds and aug.extra.points.shape == (0, ds.d)

    def test_per_cluster_totals_match_quota_oracle(self):
        # minority split (6, 4) across two tight blobs, 90 majority points
        rng = np.random.default_rng(1)
        min_a = rng.normal((0, 0), 0.1, (6, 2))
        min_b = rng.normal((10, 10), 0.1, (4, 2))
        maj = np.vstack(
            [rng.normal((0, 0), 0.1, (45, 2)), rng.normal((10, 10), 0.1, (45, 2))]
        )
        features = np.vstack([min_a, min_b, maj])
        labels = np.array([[1]] * 10 + [[0]] * 90)
        ds = make_ds(features, labels)
        assign = kmeans(ds.features, 2, seed=3)
        cfg = OversampleConfig(k_clusters=2, seed=5)
        aug = uclso_augment(ds, assign, 0, cfg)
        counts = {}
        for prov in aug.extra.provenance:
            counts[prov.cluster] = counts.get(prov.cluster, 0) + 1
        assert sorted(counts.values()) == [32, 48]  # ceil(4*8), ceil(6*8)
        assert len(aug.extra) == 80  # n_maj - n_min exactly (no ceiling slack)

    def test_parents_share_cluster_and_collinear(self, fig1_toy):
        cfg = OversampleConfig(seed=2)
        assign = kmeans(fig1_toy.features, cfg.k_clusters, seed=7)
        for l in range(fig1_toy.q):
            aug = uclso_augment(fig1_toy, assign, l, cfg)
            min_idx, _ = minority_class(fig1_toy, l)
            min_set = set(min_idx.tolist())
            for point, prov in zip(aug.extra.points, aug.extra.provenance):
                assert assign.assignment[prov.parent_u] == prov.cluster
                assert assign.assignment[prov.parent_v] == prov.cluster
                assert prov.parent_u in min_set and prov.parent_v in min_set
                u = fig1_toy.features[prov.parent_u]
                v = fig1_toy.features[prov.parent_v]
                assert segment_residual(point, u, v, prov.r) < 1e-9

    def test_balance_bound(self, fig1_toy):
        cfg = OversampleConfig(seed=2)
        assign = kmeans(fig1_toy.features, cfg.k_clusters, seed=7)
        for l in range(fig1_toy.q):
            min_idx, maj_idx = minority_class(fig1_toy, l)
            aug = uclso_augment(fig1_toy, assign, l, cfg)
            total = min_idx.size + len(aug.extra)
            assert maj_idx.size <= total <= maj_idx.size + cfg.k_clusters

    def test_proportionality(self, fig1_toy):
        cfg = OversampleConfig(seed=2)
        assign = kmeans(fig1_toy.features, cfg.k_clusters, seed=7)
        for l in range(fig1_toy.q):
            min_idx, _ = minority_class(fig1_toy, l)
            min_mask = np.zeros(fig1_toy.n, dtype=bool)
            min_mask[min_idx] = True
            aug = uclso_augment(fig1_toy, assign, l, cfg)
            counts = {p: 0 for p in range(cfg.k_clusters)}
            for prov in aug.extra.provenance:
                counts[prov.cluster] += 1
            n_lp = {
                p: int(min_mask[assign.assignment == p].sum())
                for p in range(cfg.k_clusters)
            }
            for p in range(cfg.k_clusters):
                for p2 in range(cfg.k_clusters):
                    if n_lp[p] >= n_lp[p2]:
                        assert counts[p] >= counts[p2]

    def test_singleton_cluster_duplicates(self):
        # one isolated minority point far away: its cluster quota duplicates it
        rng = np.random.default_rng(4)
        features = np.vstack([rng.normal((0, 0), 0.3, (30, 2)), [[50.0, 50.0]]])
        labels = np.zeros((31, 1), dtype=int)
        labels[5, 0] = 1
        labels[30, 0] = 1
        ds = make_ds(features, labels)
        assign = kmeans(ds.features, 2, seed=0)
        aug = uclso_augment(ds, assign, 0, OversampleConfig(k_clusters=2, seed=1))
        lone_cluster = assign.assignment[30]
        dup = [
            (pt, prov)
            for pt, prov in zip(aug.extra.points, aug.extra.provenance)
            if prov.cluster == lone_cluster
        ]
        assert dup
        for pt, prov in dup:
            assert prov.parent_u == prov.parent_v == 30
            assert np.array_equal(pt, ds.features[30])

    def test_deterministic_and_label_independent(self, fig1_toy):
        cfg = OversampleConfig(seed=2)
        assign = kmeans(fig1_toy.features, cfg.k_clusters, seed=7)
        # computing label 1 before label 0 must not change label 0's set
        b1 = uclso_augment(fig1_toy, assign, 1, cfg)
        a0 = uclso_augment(fig1_toy, assign, 0, cfg)
        a0_again = uclso_augment(fig1_toy, assign, 0, cfg)
        assert np.array_equal(a0.extra.points, a0_again.extra.points)
        assert np.array_equal(a0.extra.provenance, a0_again.extra.provenance)
        assert not np.array_equal(
            fig1_toy.labels[:, 0], fig1_toy.labels[:, 1]
        )  # sanity: labels differ
        assert b1.label_index == 1

    def test_never_mutates_base(self, fig1_toy):
        before = fig1_toy.labels.copy()
        assign = kmeans(fig1_toy.features, 5, seed=7)
        uclso_augment(fig1_toy, assign, 0, OversampleConfig(seed=2))
        assert np.array_equal(before, fig1_toy.labels)

    @pytest.mark.parametrize("entry", ["label_draws", "uclso_augment", "iter_augments"])
    @pytest.mark.parametrize("l", [0, 1])
    def test_no_clustering_is_an_oversample_error(self, entry, l):
        # every entry point of uclso mode says what is missing, also for a
        # label with no minority points (label 1), before it looks at one
        ds = make_ds(np.arange(8.0).reshape(4, 2), [[1, 0], [0, 0], [0, 0], [1, 0]])
        cfg = OversampleConfig(k_clusters=2, seed=1)
        calls = {
            "label_draws": lambda: label_draws(ds, cfg, None, l),
            "uclso_augment": lambda: uclso_augment(ds, None, l, cfg),
            "iter_augments": lambda: list(iter_augments(ds, cfg))[l],
        }
        with pytest.raises(OversampleError, match="^uclso mode needs a clustering$"):
            calls[entry]()


class TestSmoteAugment:
    def test_exact_count(self):
        rng = np.random.default_rng(6)
        labels = np.array([[1]] * 10 + [[0]] * 90)
        ds = make_ds(rng.normal(size=(100, 2)), labels)
        aug = smote_augment(ds, 0, OversampleConfig(seed=3))
        assert len(aug.extra) == 80

    def test_balanced_empty(self):
        rng = np.random.default_rng(6)
        labels = np.array([[1]] * 10 + [[0]] * 10)
        ds = make_ds(rng.normal(size=(20, 2)), labels)
        aug = smote_augment(ds, 0, OversampleConfig(seed=3))
        assert len(aug.extra) == 0

    def test_points_on_minority_segments(self):
        rng = np.random.default_rng(7)
        labels = np.array([[1]] * 15 + [[0]] * 60)
        ds = make_ds(rng.normal(size=(75, 3)), labels)
        aug = smote_augment(ds, 0, OversampleConfig(seed=4))
        min_set = set(range(15))
        for point, prov in zip(aug.extra.points, aug.extra.provenance):
            assert prov.parent_u in min_set and prov.parent_v in min_set
            u, v = ds.features[prov.parent_u], ds.features[prov.parent_v]
            assert segment_residual(point, u, v, prov.r) < 1e-9

    def test_label_vector_extends_with_ones(self, monkeypatch):
        # the targets run_cv trains label 0 on: its training column, then a
        # 1 for each of the n_maj - n_min smote points
        rng = np.random.default_rng(6)
        labels = np.array([[1]] * 20 + [[0]] * 180)
        ds = make_ds(rng.normal(size=(200, 2)), labels)
        plan = make_fold_plan(ds.n, 1, 2, seed=0)
        fitted = []

        def spy(X, rows, targets, seeds, cfg):
            fitted.append(targets)
            return fit_lockstep(X, rows, targets, seeds, cfg)

        monkeypatch.setattr(experiment, "fit_lockstep", spy)
        method = MethodSpec("smote", OversampleConfig(seed=3, mode="smote"))
        run_cv(ds, [method], plan, TrainConfig(epochs=1))
        ((first, second),) = fitted
        for fold, y in enumerate((first, second)):
            train_idx, _ = plan.train_test(0, fold)
            n = train_idx.size
            n_min = int(labels[train_idx, 0].sum())
            assert y.size == n + (n - n_min) - n_min  # n + n_maj - n_min
            assert np.array_equal(y[:n], labels[train_idx, 0])
            assert (y[n:] == 1).all()


def test_balance_bound_random_toys():
    rng = np.random.default_rng(123)
    for _ in range(10):
        ds = generate_toy(random_toy_config(rng))
        cfg = OversampleConfig(k_clusters=min(5, ds.n), seed=int(rng.integers(1 << 30)))
        assign = kmeans(ds.features, cfg.k_clusters, seed=int(rng.integers(1 << 30)))
        for l in range(ds.q):
            try:
                min_idx, maj_idx = minority_class(ds, l)
            except LabelUnusableError:
                continue
            if maj_idx.size <= min_idx.size:
                continue
            aug = uclso_augment(ds, assign, l, cfg)
            total = min_idx.size + len(aug.extra)
            assert maj_idx.size <= total <= maj_idx.size + cfg.k_clusters


@st.composite
def small_datasets(draw):
    """Small datasets with rounded, often duplicated points, labels that
    may have no minority point, and few enough minority points per label
    that pools of one are common."""
    n = draw(st.integers(3, 30))
    d = draw(st.integers(1, 3))
    q = draw(st.integers(1, 3))
    distinct = draw(st.integers(1, n))
    values = draw(st.lists(st.integers(-20, 20), min_size=distinct * d, max_size=distinct * d))
    pick = draw(st.lists(st.integers(0, distinct - 1), min_size=n, max_size=n))
    features = (np.array(values, dtype=float).reshape(distinct, d) / 10.0)[pick]
    bits = draw(st.lists(st.booleans(), min_size=n * q, max_size=n * q))
    labels = np.array(bits, dtype=int).reshape(n, q)
    if draw(st.booleans()):
        labels[:, 0] = 0  # a label with no minority point
    k = draw(st.integers(1, min(4, n)))
    cfg = OversampleConfig(k_clusters=k, m_neighbors=draw(st.integers(1, 5)),
                           seed=draw(st.integers(0, 1000)))
    return make_ds(features, labels), cfg


def brute_force_neighbours(points, m):
    """Each point's m nearest other points by the difference form
    sum_k (x_ik - x_jk)**2, summed in feature order, ties to the lower
    index: a full stable sort of every row, the point itself removed."""
    p, d = points.shape
    t = points[:, None, 0] - points[None, :, 0]
    d2 = t * t
    for k in range(1, d):
        t = points[:, None, k] - points[None, :, k]
        d2 += t * t
    order = np.argsort(d2, axis=1, kind="stable")
    return order[order != np.arange(p)[:, None]].reshape(p, p - 1)[:, :m]


@st.composite
def neighbour_pools(draw):
    """(points, m) for the neighbour search: the small datasets' points, or
    a pool of a few hundred points (more than one chunk of 256 rows) on a
    coarse grid, with 0/1 features, with rows of 1e200 (whose squares
    overflow) or of 1e20 (whose squares overflow float32 only), scaled to
    1e-25 to 1e-19 (where float32 products underflow), or with few
    distinct points, so that ties at the m-th distance are common; d from
    1 to 3, m from 1 to p - 1. Or a cancellation pool: 60-d points of
    magnitude 1e3 that lie 1e-9 apart, where the expanded form
    |x|^2 - 2 x.y + |y|^2 gives 0.0 for every pair. Or a large pool of 512
    to 1500 Gaussian points in up to 60 dimensions, at or above the size
    from which the filter bounds its threshold by block minima."""
    kind = draw(st.sampled_from(["small", "grid", "binary", "huge", "huge32", "underflow",
                                 "duplicates", "cancellation", "large"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p, d = draw(st.integers(200, 600)), draw(st.integers(1, 3))
    if kind == "small":
        points = draw(small_datasets())[0].features
    elif kind == "duplicates":
        distinct = rng.normal(size=(draw(st.integers(1, 8)), d))
        points = distinct[rng.integers(distinct.shape[0], size=p)]
    elif kind == "cancellation":
        # few points keep chunks of one row fast
        points = 1e3 + rng.integers(-1, 2, size=(p // 10, 60)) * 1e-9
    elif kind == "large":
        p = draw(st.integers(oversample.BLOCK_MIN_POOL, 1500))
        points = rng.normal(size=(p, draw(st.integers(1, 60))))
    else:
        levels = 2 if kind == "binary" else draw(st.integers(3, 12))
        points = rng.integers(0, levels, size=(p, d)) / (levels - 1)
        if kind in ("huge", "huge32"):
            points[rng.random(p) < 0.1] = 1e200 if kind == "huge" else 1e20
        elif kind == "underflow":
            points *= draw(st.sampled_from([1e-25, 1e-20, 1e-19]))
    p = points.shape[0]
    m = draw(st.one_of(st.integers(1, min(8, p - 1)), st.integers(1, p - 1), st.just(p - 1)))
    return points, m


def chunked_neighbours(points, m, rows, chunk):
    saved = oversample.SORT_ROWS
    oversample.SORT_ROWS = chunk
    try:
        return neighbours(points, m, rows)
    finally:
        oversample.SORT_ROWS = saved



def filter_slack(points):
    """The filter's slack per point, as `neighbours` works it out, without
    its absolute underflow term."""
    u, d = 2.0**-24, points.shape[1]
    centred = points - points.mean(axis=0)
    norms = (centred * centred).sum(axis=1)
    return 2 * 8 * (d + 2) * u / (1 - (d + 2) * u) * (norms + norms.max())


@st.composite
def gap_edge_pools(draw):
    """(points, m) whose filter gaps sit at the edge of the gap test that
    lets the float32 filter order a row alone: duplicated points (zero
    gaps beside wide ones); coarse integer grids, some far from 0 (exact
    ties); near-ties, shells around a few centres whose squared radii step
    by 1e-3 to 4 times the filter's slack; or pools of BLOCK_MIN_POOL - 1
    to + 1 points with m about p / 8, where the threshold switches between
    a partition and block minima."""
    kind = draw(st.sampled_from(["duplicates", "grid", "near_ties", "block_edge"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 8))
    m = None
    if kind == "duplicates":
        p = draw(st.integers(20, 400))
        points = rng.normal(size=(p, d))
        copies = draw(st.integers(1, p // 2))
        points[rng.integers(p, size=copies)] = points[rng.integers(p, size=copies)]
    elif kind == "grid":
        p = draw(st.integers(20, 400))
        offset = draw(st.sampled_from([0.0, 1e3, 1e6]))
        points = offset + rng.integers(0, draw(st.integers(2, 6)), size=(p, d))
    elif kind == "near_ties":
        centres, shell = draw(st.integers(1, 6)), draw(st.integers(2, 12))
        directions = rng.normal(size=(centres, shell, d))
        directions /= np.linalg.norm(directions, axis=2, keepdims=True)
        steps = rng.permuted(np.tile(np.arange(shell), (centres, 1)), axis=1)
        middle = 4 * rng.normal(size=(centres, 1, d))

        def pool(step):
            radii = np.sqrt(1.0 + step * steps)[:, :, None]
            return np.concatenate([middle, middle + radii * directions], axis=1).reshape(-1, d)

        step = draw(st.sampled_from([1e-3, 0.25, 0.5, 1.0, 1.5, 2.0, 4.0]))
        points = pool(step * filter_slack(pool(0.0)).max())
        m = draw(st.integers(1, shell))
    else:
        p = oversample.BLOCK_MIN_POOL + draw(st.integers(-1, 1))
        levels = draw(st.sampled_from([0, 3, 6, 12]))  # 0: Gaussian points
        if levels:
            points = rng.integers(0, levels, size=(p, d)) / 4.0
        else:
            points = rng.normal(size=(p, d))
        m = p // 8 + draw(st.integers(-1, 1))
    if m is None:
        m = draw(st.integers(1, min(8, points.shape[0] - 1)))
    return points, m


# lists of tiny, mid-size and wide pools, hashed in a fresh process so that
# the BLAS thread count can be set; at d = 60 the filter's BLAS product has
# other bits with one thread than with two
THREADED_NEIGHBOURS = """
import hashlib
import numpy as np
from uclso.oversample import neighbours
rng = np.random.default_rng(5)
digest = hashlib.sha256()
for p, d in ((40, 3), (300, 60), (1500, 60), (600, 7)):
    points = rng.normal(size=(p, d)) * rng.uniform(0.5, 20.0, size=d)
    digest.update(neighbours(points, 5, np.arange(p)).tobytes())
print(digest.hexdigest())
"""


@pytest.mark.seeds
class TestNeighbours:
    @given(pool=neighbour_pools(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_requested_rows_equal_all_rows(self, pool, data):
        points, m = pool
        p = points.shape[0]
        rows = np.array(data.draw(st.lists(st.integers(0, p - 1), max_size=2 * p)), dtype=np.intp)
        chunk = data.draw(st.sampled_from([1, 7, 256]))
        with np.errstate(over="ignore", invalid="ignore"):
            every = neighbours(points, m, np.arange(p))
            got = chunked_neighbours(points, m, rows, chunk)
        assert got.shape == (rows.size, m)
        assert np.array_equal(got, every[rows])

    def test_cancellation_pair_is_resolved(self):
        # the expanded form can give 0.0 for every pair here; exactly, b is
        # nearer than c to a, and nearer than a to c
        a = np.full(60, 1e3)
        b, c = a.copy(), a.copy()
        b[0] += 1e-9
        c[:2] += 1e-9
        points = np.array([c, a, b])
        assert neighbours(points, 1, np.array([0, 1])).tolist() == [[2], [2]]

    @pytest.mark.parametrize("kind", ["offset", "sorted"])
    def test_large_pool_keeps_few_candidates(self, monkeypatch, kind):
        # offset: far from 0 and narrow, so the filter must work on the
        # centred pool, or float32's rounding of |x|^2 (about 6e7 here)
        # makes every point a candidate. sorted: long along one axis and in
        # that order, so column blocks must be strided, or the other blocks'
        # minima lie far away and loosen the threshold
        rng = np.random.default_rng(14)
        points = rng.normal(size=(1500, 60))
        if kind == "offset":
            points = 1000 + 10 * points
        else:
            points[:, 0] *= 100
            points = points[np.argsort(points[:, 0])]
        pairs = []
        difference_form = oversample._difference_form

        def counted(left, i, right, j):
            pairs.append(i.size)
            return difference_form(left, i, right, j)

        monkeypatch.setattr(oversample, "_difference_form", counted)
        m, rows = 5, np.arange(1500)
        got = neighbours(points, m, rows)
        assert sum(pairs) <= 4 * m * rows.size
        assert np.array_equal(got, brute_force_neighbours(points, m))

    def test_distances_are_summed_in_feature_order(self):
        # squared differences 1 and eight times 2**-54: summed in feature
        # order, each 2**-54 rounds away and a ties with b at 1.0, so the
        # lower index wins; a pairwise sum (numpy's) gives a 1 + 2**-52
        a = np.array([1.0] + [2.0**-27] * 8)
        b = np.array([1.0] + [0.0] * 8)
        points = np.array([np.zeros(9), a, b])
        assert neighbours(points, 1, np.array([0])).tolist() == [[1]]

    def test_same_lists_at_any_blas_thread_count(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            proc = subprocess.run([sys.executable, "-c", THREADED_NEIGHBOURS], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout)
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("kind", ["normal", "duplicates"])
    def test_memory_is_linear_in_pool_size(self, kind):
        # every point a candidate is the worst case: all-duplicate points
        p, d, m = 5000, 20, 5
        rng = np.random.default_rng(3)
        points = rng.normal(size=(p, d)) if kind == "normal" else np.ones((p, d))
        rows = np.arange(0, p, 17)
        bound = 6 * oversample.SORT_ROWS * p * 8
        assert bound < p * p * 8 / 3
        tracemalloc.start()
        try:
            got = neighbours(points, m, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound
        if kind == "duplicates":
            # every distance is 0: the m lowest other indices
            want = [[j for j in range(m + 1) if j != i][:m] for i in rows]
            assert got.tolist() == want

    # the ids number the cases from 2, the names they had while the table
    # opened with two non-finite cases (points are now dataset rows)
    @pytest.mark.parametrize(
        "points, m, rows, match",
        [
            pytest.param(*case, id=f"points{i}-{case[1]}-rows{i}-{case[3]}")
            for i, case in enumerate([
                (np.zeros(3), 1, [0], "2-d"),
                (np.zeros((3, 1)), 0, [0], r"m=0 must be in \[1, 2\]"),
                (np.zeros((3, 1)), 3, [0], r"m=3 must be in \[1, 2\]"),
                (np.zeros((1, 1)), 1, [0], r"must be in \[1, 0\]"),
                (np.zeros((3, 1)), 1, [[0]], "rows"),
                (np.zeros((3, 1)), 1, [0.0], "rows"),
                (np.zeros((3, 1)), 1, [True], "rows"),
                (np.zeros((3, 1)), 1, [-1], "rows"),
                (np.zeros((3, 1)), 1, [3], "rows"),
                (np.zeros((3, 1)), 1, [], "rows"),  # an empty list is float
            ], start=2)
        ],
    )
    def test_bad_arguments_rejected(self, points, m, rows, match):
        with pytest.raises(OversampleError, match=match):
            neighbours(points, m, np.asarray(rows))

    def test_no_rows_no_lists(self):
        assert neighbours(np.zeros((3, 1)), 2, np.array([], dtype=np.intp)).shape == (0, 2)


class TestFilterOrder:
    """Rows whose filter gaps decide their order skip the difference form;
    the lists stay those of the full sort."""

    @pytest.mark.seeds
    @given(pool=gap_edge_pools())
    @settings(max_examples=80, deadline=None)
    def test_gap_edge_pools_equal_full_sort(self, pool):
        points, m = pool
        want = brute_force_neighbours(points, m)
        rows = np.arange(points.shape[0])
        for chunk in (1, 7, 256):
            assert np.array_equal(chunked_neighbours(points, m, rows, chunk), want)

    def test_most_wide_rows_skip_the_difference_form(self, monkeypatch):
        # blobs in 60 dimensions, as the wide benchmark workload draws
        # them: about 6% of these rows reach the difference form
        rng = np.random.default_rng(21)
        centres = rng.normal(0.0, 0.6, (8, 60))
        points = centres[rng.integers(8, size=1500)] + rng.normal(size=(1500, 60))
        reached = []
        difference_form = oversample._difference_form

        def counted(left, i, right, j):
            reached.append(np.unique(i).size)
            return difference_form(left, i, right, j)

        monkeypatch.setattr(oversample, "_difference_form", counted)
        got = neighbours(points, 5, np.arange(1500))
        assert sum(reached) <= 1500 // 5
        assert np.array_equal(got, brute_force_neighbours(points, 5))


@pytest.mark.seeds
class TestSynthesisPaths:
    @given(pool=neighbour_pools())
    @settings(max_examples=100, deadline=None)
    def test_chunked_neighbours_equal_full_sort(self, pool):
        points, m = pool
        rows = np.arange(points.shape[0])
        with np.errstate(over="ignore", invalid="ignore"):
            want = brute_force_neighbours(points, m)
            for chunk in (1, 2, 7, 64, 256):
                assert np.array_equal(chunked_neighbours(points, m, rows, chunk), want)

    @given(data=small_datasets(), mode=st.sampled_from(["uclso", "smote", "none"]))
    @settings(max_examples=80, deadline=None)
    def test_block_path_equals_allocating_path(self, data, mode):
        ds, cfg = data
        cfg = OversampleConfig(cfg.k_clusters, cfg.m_neighbors, cfg.seed, mode)
        assign = kmeans(ds.features, cfg.k_clusters, seed=cfg.seed)
        draws = [label_draws(ds, cfg, assign, l) for l in range(ds.q)]
        counts = [synthetic_count(d) for d in draws]
        block = np.full((sum(counts), ds.d), np.nan)  # unwritten rows stay nan
        # each usable label's points written into its own rows of the block,
        # from its draws, as the experiment writes them into its matrix
        written, start = [], 0
        for l, plan in enumerate(draws):
            out = block[start:start + counts[l]]
            start += counts[l]
            if isinstance(plan, LabelUnusableError):
                written.append(plan)
            else:  # whatever the mode; none's draws are empty
                written.append(augment(ds, l, cfg, plan, out))
        allocated = list(iter_augments(ds, cfg, assign))
        start = 0
        for l, (a, b) in enumerate(zip(allocated, written)):
            if isinstance(a, LabelUnusableError):
                assert isinstance(b, LabelUnusableError) and counts[l] == 0
                continue
            assert len(a.extra) == counts[l]
            assert np.array_equal(a.extra.points, block[start:start + counts[l]])
            assert np.shares_memory(b.extra.points, block) or counts[l] == 0
            assert np.array_equal(a.extra.provenance, b.extra.provenance)
            start += counts[l]
        assert not np.isnan(block).any()

    @given(data=small_datasets())
    @settings(max_examples=80, deadline=None)
    def test_count_matches_drawn_points(self, data):
        ds, cfg = data
        assign = kmeans(ds.features, cfg.k_clusters, seed=cfg.seed)
        for l in range(ds.q):
            for augment, mode in ((lambda: uclso_augment(ds, assign, l, cfg), "uclso"),
                                  (lambda: smote_augment(ds, l, cfg), "smote")):
                mode_cfg = OversampleConfig(cfg.k_clusters, cfg.m_neighbors, cfg.seed, mode)
                try:
                    drawn = len(augment().extra)
                except LabelUnusableError:
                    drawn = 0
                assert synthetic_count(label_draws(ds, mode_cfg, assign, l)) == drawn
            none_cfg = OversampleConfig(cfg.k_clusters, cfg.m_neighbors, cfg.seed, "none")
            assert synthetic_count(label_draws(ds, none_cfg, assign, l)) == 0

    @given(data=small_datasets(), mode=st.sampled_from(["uclso", "smote"]))
    @settings(max_examples=80, deadline=None)
    def test_points_equal_interpolate_bit_for_bit(self, data, mode):
        ds, cfg = data
        cfg = OversampleConfig(cfg.k_clusters, cfg.m_neighbors, cfg.seed, mode)
        assign = kmeans(ds.features, cfg.k_clusters, seed=cfg.seed)
        for aug in iter_augments(ds, cfg, assign):
            if isinstance(aug, LabelUnusableError):
                continue
            prov, points = aug.extra.provenance, aug.extra.points
            drawn = prov.r > 0.0  # r is 0 only for a pool of one, which is copied
            want = interpolate(ds.features[prov.parent_u[drawn]],
                               ds.features[prov.parent_v[drawn]], prov.r[drawn])
            assert points[drawn].tobytes() == want.tobytes()

    def test_wide_points_equal_interpolate_bit_for_bit(self):
        rng = np.random.default_rng(15)
        labels = (rng.random((2000, 1)) < 0.2).astype(int)
        ds = make_ds(rng.normal(size=(2000, 60)) * rng.uniform(0.1, 1e3, 60), labels)
        aug = smote_augment(ds, 0, OversampleConfig(seed=5, mode="smote"))
        prov = aug.extra.provenance
        assert len(aug.extra) > 1000
        want = interpolate(ds.features[prov.parent_u], ds.features[prov.parent_v], prov.r)
        assert aug.extra.points.tobytes() == want.tobytes()

    @given(data=small_datasets(), mode=st.sampled_from(["uclso", "smote"]))
    @settings(max_examples=60, deadline=None)
    def test_float32_block_holds_each_point_rounded_once(self, data, mode):
        # the experiment's group matrix is float32: each point is
        # interpolated in float64, as the CLI writes it, then rounded once
        ds, cfg = data
        cfg = OversampleConfig(cfg.k_clusters, cfg.m_neighbors, cfg.seed, mode)
        assign = kmeans(ds.features, cfg.k_clusters, seed=cfg.seed)
        for l, aug in enumerate(iter_augments(ds, cfg, assign)):
            if isinstance(aug, LabelUnusableError):
                continue
            block = np.full(aug.extra.points.shape, np.nan, dtype=np.float32)
            augment(ds, l, cfg, label_draws(ds, cfg, assign, l), block)
            assert block.tobytes() == aug.extra.points.astype(np.float32).tobytes()

    def test_wide_float32_block_is_the_float64_points_rounded(self):
        # many interpolation blocks, and features at float32's extremes:
        # an interpolant rounds to them, never past them to inf
        rng = np.random.default_rng(16)
        labels = (rng.random((2000, 1)) < 0.2).astype(int)
        features = rng.normal(size=(2000, 60)) * rng.uniform(0.1, 1e3, 60)
        top = float(np.finfo(np.float32).max)
        features[labels[:, 0] == 1, :2] = rng.choice([-top, top], size=(labels.sum(), 2))
        ds = make_ds(features, labels)
        cfg = OversampleConfig(seed=5, mode="smote")
        points = smote_augment(ds, 0, cfg).extra.points
        assert len(points) > 4 * oversample.SYNTH_ROWS
        block = np.empty(points.shape, dtype=np.float32)
        augment(ds, 0, cfg, label_draws(ds, cfg, None, 0), block)
        assert block.tobytes() == points.astype(np.float32).tobytes()
        assert np.isfinite(block).all() and np.abs(block[:, :2]).max() == top

    def test_block_of_wrong_size_rejected(self):
        ds = make_ds(np.arange(8.0).reshape(4, 2), [[1], [0], [0], [0]])
        cfg = OversampleConfig(seed=1, mode="smote")
        with pytest.raises(OversampleError, match="block"):
            augment(ds, 0, cfg, label_draws(ds, cfg, None, 0), np.empty((3, 2)))


class TestNonFiniteFeatures:
    """The augmenters take no check of their own: a dataset that holds a
    non-finite feature value cannot be built, so none reaches them."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_dataset_cannot_be_built(self, value):
        features = np.arange(8.0).reshape(4, 2)
        features[2, 1] = value  # in label l0's minority row 2
        with pytest.raises(DatasetError, match=(
            f"^feature 'x1' holds the non-finite value {value!r} in row 2$"
        )):
            make_ds(features, [[1], [0], [1], [0]])



class TestDistanceLimit:
    """augment, and so every library augmenter, refuses pools whose
    squared distances could overflow before it draws a point: at 1e160,
    smote once drew its 70 points with overflow warnings and other
    parents than on the unscaled rows. Label l0's pools are rows 50 to 64,
    whose squared norms all overflow: the first, row 50, is named."""

    @pytest.mark.parametrize("entry", ["smote_augment", "uclso_augment", "iter_augments"])
    def test_rows_past_the_distance_limit_are_refused(self, two_blob_features, entry):
        labels = np.zeros((100, 1), dtype=int)
        labels[50:65, 0] = 1
        ds = make_ds(two_blob_features * 1e160, labels)
        assign = kmeans(two_blob_features, 2, seed=5)  # the unscaled rows' clusters
        cfg = OversampleConfig(k_clusters=2, seed=1, mode="smote" if entry == "smote_augment"
                               else "uclso")
        call = {
            "smote_augment": lambda: smote_augment(ds, 0, cfg),
            "uclso_augment": lambda: uclso_augment(ds, assign, 0, cfg),
            "iter_augments": lambda: list(iter_augments(ds, cfg, assign)),
        }[entry]
        message = (f"row 50 has norm {math.hypot(*ds.features[50])!r}, past "
                   "4.740375954054588e+153, the largest whose squared distances stay "
                   "finite: rescale the features, for example by scale: minmax")
        with warnings.catch_warnings(), \
                mock.patch.object(oversample, "_synthesize", wraps=oversample._synthesize) as drawn:
            warnings.simplefilter("error")
            with pytest.raises(DatasetError) as err:
                call()
        assert str(err.value) == message
        assert drawn.call_count == 0

@st.composite
def tiny_pools(draw):
    """(ds, cfg): d = 1, a label with 1 or 2 minority points (often at the
    same value) and up to 30 majority points, so every pool holds 1 or 2
    points."""
    n_min = draw(st.integers(1, 2))
    n_maj = draw(st.integers(0, 30))
    values = draw(st.lists(st.integers(-4, 4), min_size=n_min + n_maj,
                           max_size=n_min + n_maj))
    labels = np.array([[1]] * n_min + [[0]] * n_maj)
    k = draw(st.integers(1, min(3, n_min + n_maj)))
    cfg = OversampleConfig(k_clusters=k, m_neighbors=draw(st.integers(1, 5)),
                           seed=draw(st.integers(0, 1000)))
    return make_ds(np.array(values, dtype=float)[:, None] / 2.0, labels), cfg


class TestTinyPools:
    @given(data=tiny_pools(), mode=st.sampled_from(["uclso", "smote"]))
    @settings(max_examples=150, deadline=None)
    def test_balance_bound_and_parents_in_pool(self, data, mode):
        ds, cfg = data
        cfg = OversampleConfig(cfg.k_clusters, cfg.m_neighbors, cfg.seed, mode)
        assign = kmeans(ds.features, cfg.k_clusters, seed=cfg.seed)
        (aug,) = iter_augments(ds, cfg, assign)
        min_idx, maj_idx = minority_class(ds, 0)
        total = min_idx.size + len(aug.extra)
        if maj_idx.size <= min_idx.size:
            assert len(aug.extra) == 0
        else:
            k = cfg.k_clusters if mode == "uclso" else 0
            assert maj_idx.size <= total <= maj_idx.size + k
        prov = aug.extra.provenance
        assert np.isin(prov.parent_u, min_idx).all() and np.isin(prov.parent_v, min_idx).all()
        if mode == "uclso":
            cluster = assign.assignment
            assert (cluster[prov.parent_u] == prov.cluster).all()
            assert (cluster[prov.parent_v] == prov.cluster).all()
        lo = np.minimum(ds.features[prov.parent_u], ds.features[prov.parent_v])
        hi = np.maximum(ds.features[prov.parent_u], ds.features[prov.parent_v])
        assert ((lo <= aug.extra.points) & (aug.extra.points <= hi)).all()


class TestVectorisedDraw:
    @given(data=small_datasets(), mode=st.sampled_from(["uclso", "smote"]))
    @settings(max_examples=80, deadline=None)
    def test_provenance_per_pool(self, data, mode):
        ds, cfg = data
        cfg = OversampleConfig(cfg.k_clusters, cfg.m_neighbors, cfg.seed, mode)
        assign = kmeans(ds.features, cfg.k_clusters, seed=cfg.seed)
        for l, aug in enumerate(iter_augments(ds, cfg, assign)):
            if isinstance(aug, LabelUnusableError):
                continue
            prov = aug.extra.provenance
            assert prov.shape == (len(aug.extra),)
            start = 0
            for cluster, pool, count in label_draws(ds, cfg, assign, l):
                rec = prov[start:start + count]
                points = aug.extra.points[start:start + count]
                assert (rec.cluster == cluster).all()
                assert np.isin(rec.parent_u, pool).all() and np.isin(rec.parent_v, pool).all()
                if pool.size == 1:
                    assert (rec.parent_u == pool[0]).all() and (rec.parent_v == pool[0]).all()
                    assert (rec.r == 0.0).all()
                    assert (points == ds.features[pool[0]]).all()
                else:
                    assert ((rec.r > 0.0) & (rec.r < 1.0)).all()
                    assert (rec.parent_u != rec.parent_v).all()
                start += count
            assert start == len(prov)

    @pytest.mark.parametrize("mode, cluster", [("uclso", 0), ("smote", -1)])
    def test_draw_order_oracle(self, mode, cluster):
        # one pool: uclso with a single cluster, or smote's global pool
        rng = np.random.default_rng(9)
        labels = np.zeros((40, 2), dtype=int)
        labels[rng.choice(40, size=12, replace=False), 1] = 1
        ds = make_ds(rng.normal(size=(40, 3)), labels)
        cfg = OversampleConfig(k_clusters=1, m_neighbors=4, seed=21, mode=mode)
        assign = kmeans(ds.features, 1, seed=0)
        aug = next(a for l, a in enumerate(iter_augments(ds, cfg, assign)) if l == 1)

        pool = np.flatnonzero(labels[:, 1])
        count = 28 - 12
        stream = np.random.default_rng([cfg.seed, 1])
        slot = stream.integers(pool.size, size=count)
        near = brute_force_neighbours(ds.features[pool], 4)[slot, stream.integers(4, size=count)]
        r = stream.uniform(np.finfo(float).tiny, 1.0, count)
        u, v = ds.features[pool[slot]], ds.features[pool[near]]

        prov = aug.extra.provenance
        assert prov.cluster.tolist() == [cluster] * count
        assert prov.parent_u.tolist() == pool[slot].tolist()
        assert prov.parent_v.tolist() == pool[near].tolist()
        assert prov.r.tolist() == r.tolist()
        assert np.array_equal(aug.extra.points, u + (v - u) * r[:, None])
