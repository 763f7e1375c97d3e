import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uclso.clustering import kmeans
from uclso.dataset import MultiLabelDataset, generate_toy
from uclso import oversample
from uclso.oversample import (
    LabelUnusableError,
    OversampleConfig,
    OversampleError,
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
        assert aug.features() is ds.features

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

    def test_label_vector_extends_with_ones(self):
        rng = np.random.default_rng(6)
        labels = np.array([[1]] * 10 + [[0]] * 90)
        ds = make_ds(rng.normal(size=(100, 2)), labels)
        aug = smote_augment(ds, 0, OversampleConfig(seed=3))
        y = aug.label_vector()
        assert y.size == 180
        assert (y[100:] == 1).all()


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


def full_sort_neighbours(points, m):
    d2 = (
        (points * points).sum(axis=1)[:, None]
        - 2.0 * points @ points.T
        + (points * points).sum(axis=1)[None, :]
    )
    np.fill_diagonal(d2, np.inf)
    return np.argsort(d2, axis=1, kind="stable")[:, :m]


@st.composite
def neighbour_pools(draw):
    """(points, m) for the neighbour search: the small datasets' points, or
    a pool of a few hundred points (past argpartition's simple selection
    for small kth) on a coarse grid, with 0/1 features, or with non-finite
    distances, so that ties at the m-th distance are common; d from 1 to 3,
    m from 1 to p - 1."""
    kind = draw(st.sampled_from(["small", "grid", "binary", "non-finite"]))
    if kind == "small":
        points = draw(small_datasets())[0].features
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        p, d = draw(st.integers(200, 600)), draw(st.integers(1, 3))
        levels = 2 if kind == "binary" else draw(st.integers(3, 12))
        points = rng.integers(0, levels, size=(p, d)) / (levels - 1)
        if kind == "non-finite":
            # squares of 1e200 overflow: inf and nan distances
            points[rng.random(p) < 0.1] = 1e200
            points[rng.random(p) < 0.05, 0] = np.nan
    p = points.shape[0]
    m = draw(st.one_of(st.integers(1, min(8, p - 1)), st.integers(1, p - 1), st.just(p - 1)))
    return points, m


class TestSynthesisPaths:
    @given(pool=neighbour_pools(), chunk=st.sampled_from([1, 2, 7, 64, 256]))
    @settings(max_examples=150, deadline=None)
    def test_chunked_neighbours_equal_full_sort(self, pool, chunk):
        points, m = pool
        saved = oversample.SORT_ROWS
        oversample.SORT_ROWS = chunk
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                got = neighbours(points, m)
                want = full_sort_neighbours(points, m)
        finally:
            oversample.SORT_ROWS = saved
        assert np.array_equal(got, want)

    @given(data=small_datasets(), mode=st.sampled_from(["uclso", "smote", "none"]))
    @settings(max_examples=80, deadline=None)
    def test_block_path_equals_allocating_path(self, data, mode):
        ds, cfg = data
        cfg = OversampleConfig(cfg.k_clusters, cfg.m_neighbors, cfg.seed, mode)
        assign = kmeans(ds.features, cfg.k_clusters, seed=cfg.seed)
        draws = [label_draws(ds, cfg, assign, l) for l in range(ds.q)]
        counts = [synthetic_count(d) for d in draws]
        block = np.full((sum(counts), ds.d), np.nan)  # unwritten rows stay nan
        written = list(iter_augments(ds, cfg, assign, block, draws))
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

    def test_block_of_wrong_size_rejected(self):
        ds = make_ds(np.arange(8.0).reshape(4, 2), [[1], [0], [0], [0]])
        with pytest.raises(OversampleError, match="block"):
            smote_augment(ds, 0, OversampleConfig(seed=1), out=np.empty((3, 2)))


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
        near = full_sort_neighbours(ds.features[pool], 4)[slot, stream.integers(4, size=count)]
        r = stream.uniform(np.finfo(float).tiny, 1.0, count)
        u, v = ds.features[pool[slot]], ds.features[pool[near]]

        prov = aug.extra.provenance
        assert prov.cluster.tolist() == [cluster] * count
        assert prov.parent_u.tolist() == pool[slot].tolist()
        assert prov.parent_v.tolist() == pool[near].tolist()
        assert prov.r.tolist() == r.tolist()
        assert np.array_equal(aug.extra.points, u + (v - u) * r[:, None])
