import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from uclso.dataset import (
    DatasetError,
    MultiLabelDataset,
    ToyConfig,
    compute_stats,
    filter_labels,
    generate_toy,
    make_fold_plan,
    scale_min_max,
)

from conftest import random_toy_config


def make_ds(labels, n_features=2):
    labels = np.asarray(labels)
    n = labels.shape[0]
    rng = np.random.default_rng(0)
    return MultiLabelDataset(
        rng.normal(size=(n, n_features)),
        labels,
        tuple(f"x{i}" for i in range(n_features)),
        tuple(f"l{i}" for i in range(labels.shape[1])),
    )


class TestMultiLabelDataset:
    def test_rejects_non_binary_labels(self):
        with pytest.raises(DatasetError, match="0 or 1"):
            make_ds([[1, 2], [0, 0]])

    def test_rejects_row_mismatch(self):
        with pytest.raises(DatasetError):
            MultiLabelDataset(
                np.zeros((3, 2)), np.zeros((2, 1), dtype=int), ("a", "b"), ("l",)
            )

    def test_rejects_duplicate_names(self):
        with pytest.raises(DatasetError, match="duplicate"):
            MultiLabelDataset(
                np.zeros((2, 2)), np.zeros((2, 1), dtype=int), ("a", "a"), ("l",)
            )

    def test_matrices_are_immutable(self, tiny_ds):
        with pytest.raises(ValueError):
            tiny_ds.features[0, 0] = 5.0

    def test_subset_shares_no_memory_with_its_parent(self, tiny_ds):
        sub = tiny_ds.subset([2, 0])
        for part, whole in ((sub.features, tiny_ds.features), (sub.labels, tiny_ds.labels)):
            assert np.array_equal(part, whole[[2, 0]])
            assert not np.shares_memory(part, whole)
            assert not part.flags.writeable


def named_ds(features):
    """features with one all-zero label and columns named x0, x1, ..."""
    features = np.asarray(features, dtype=float)
    return MultiLabelDataset(
        features,
        np.zeros((features.shape[0], 1), dtype=int),
        tuple(f"x{j}" for j in range(features.shape[1])),
        ("l0",),
    )


def non_finite_message(features, row, col):
    return (
        f"feature 'x{col}' holds the non-finite value {float(features[row, col])!r} "
        f"in row {row}"
    )


class TestFiniteFeatures:
    @pytest.mark.parametrize("cells, first", [
        ({(1, 2): -np.inf, (2, 0): np.nan, (2, 1): np.inf}, (1, 2)),
        ({(3, 2): np.inf, (0, 1): np.nan, (1, 0): -np.inf}, (0, 1)),
        ({(2, 2): np.nan, (3, 0): -np.inf, (2, 1): np.inf}, (2, 1)),
    ])
    def test_first_non_finite_value_in_row_order_is_named(self, cells, first):
        features = np.ones((4, 3))
        for cell, value in cells.items():
            features[cell] = value
        with pytest.raises(DatasetError) as exc:
            named_ds(features)
        assert str(exc.value) == non_finite_message(features, *first)


# finite values, with the edges drawn often: the largest floats, the
# smallest subnormal and both zeros
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([np.finfo(float).max, -np.finfo(float).max,
                     np.finfo(float).smallest_subnormal, -np.finfo(float).smallest_subnormal,
                     0.0, -0.0]),
)
MATRICES = hnp.arrays(float, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                      elements=FINITE)


class TestFiniteFeaturesProperty:
    @given(features=MATRICES)
    @settings(max_examples=200, deadline=None)
    def test_every_finite_matrix_is_accepted(self, features):
        ds = named_ds(features)
        assert ds.features.tobytes() == features.tobytes()  # -0.0 kept too

    @given(features=MATRICES, data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_a_non_finite_entry_is_rejected_and_the_first_named(self, features, data):
        cells = data.draw(st.lists(
            st.tuples(st.integers(0, features.shape[0] - 1),
                      st.integers(0, features.shape[1] - 1),
                      st.sampled_from([np.nan, np.inf, -np.inf])),
            min_size=1, max_size=4,
        ))
        for row, col, value in cells:
            features[row, col] = value
        row, col = min((row, col) for row, col, _ in cells)
        with pytest.raises(DatasetError) as exc:
            named_ds(features)
        assert str(exc.value) == non_finite_message(features, row, col)


class TestComputeStats:
    def test_hand_counted_example(self):
        # brute force: 3 relevant assignments over 2 rows, 2 distinct rows
        ds = make_ds([[1, 1], [1, 0]])
        st_ = compute_stats(ds)
        assert st_.cardinality == pytest.approx(1.5)
        assert st_.density == pytest.approx(0.75)
        assert st_.distinct_labelsets == 2
        assert st_.proportion_distinct == pytest.approx(1.0)

    def test_all_zero_labels(self):
        ds = make_ds([[0, 0], [0, 0]])
        st_ = compute_stats(ds)
        assert st_.cardinality == 0.0
        assert st_.density == 0.0
        assert np.isnan(st_.ir_min) and np.isnan(st_.ir_max) and np.isnan(st_.ir_avg)

    def test_imbalance_ratio(self):
        labels = np.zeros((10, 1), dtype=int)
        labels[:2, 0] = 1
        st_ = compute_stats(make_ds(labels))
        assert st_.ir_min == st_.ir_max == st_.ir_avg == pytest.approx(4.0)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_distinct_labelsets_equal_numpy_unique_rows(self, data):
        # n = 1, and every row the same, are the edges of the count
        n = data.draw(st.sampled_from([1, 2, 40]) | st.integers(1, 40))
        q = data.draw(st.integers(1, 5))
        if data.draw(st.booleans()):
            labels = np.tile(data.draw(hnp.arrays(int, q, elements=st.integers(0, 1))), (n, 1))
        else:
            labels = data.draw(hnp.arrays(int, (n, q), elements=st.integers(0, 1)))
        st_ = compute_stats(make_ds(labels))
        assert st_.distinct_labelsets == len(np.unique(labels, axis=0))
        assert st_.proportion_distinct == st_.distinct_labelsets / n

    def test_density_times_labels_is_cardinality(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            ds = generate_toy(random_toy_config(rng))
            st_ = compute_stats(ds)
            assert abs(st_.density * st_.labels - st_.cardinality) < 1e-12


class TestFilterLabels:
    def test_drops_few_positives(self):
        labels = np.zeros((1000, 2), dtype=int)
        labels[:19, 0] = 1
        labels[:100, 1] = 1
        filtered, report = filter_labels(make_ds(labels))
        assert filtered.label_names == ("l1",)
        assert report == [("l0", "min_pos", 19.0)]

    def test_keeps_ir_just_below_threshold(self):
        labels = np.zeros((1000, 2), dtype=int)
        labels[:20, 0] = 1  # IR 49 < 50, 20 positives: kept
        labels[:500, 1] = 1
        filtered, report = filter_labels(make_ds(labels))
        assert filtered.label_names == ("l0", "l1")
        assert report == []

    def test_drops_ir_at_threshold(self):
        labels = np.zeros((1020, 2), dtype=int)
        labels[:20, 0] = 1  # IR 50: dropped
        labels[:510, 1] = 1
        filtered, report = filter_labels(make_ds(labels))
        assert filtered.label_names == ("l1",)
        assert report[0][:2] == ("l0", "max_ir")

    def test_balanced_label_kept(self):
        labels = np.zeros((1000, 1), dtype=int)
        labels[:500, 0] = 1
        filtered, report = filter_labels(make_ds(labels))
        assert filtered.q == 1 and report == []

    def test_all_dropped_is_error(self):
        labels = np.zeros((100, 1), dtype=int)
        labels[0, 0] = 1
        with pytest.raises(DatasetError, match="unusable"):
            filter_labels(make_ds(labels))

    def test_idempotent(self):
        rng = np.random.default_rng(9)
        labels = (rng.random((500, 4)) < [0.01, 0.05, 0.3, 0.5]).astype(int)
        ds = make_ds(labels)
        once, _ = filter_labels(ds)
        twice, report = filter_labels(once)
        assert report == []
        assert np.array_equal(once.labels, twice.labels)
        assert once.label_names == twice.label_names


class TestFoldPlan:
    def test_partition_and_sizes(self):
        plan = make_fold_plan(5, 3, 2, seed=1)
        for rep in range(3):
            folds = plan.assignments[rep]
            sizes = sorted(len(f) for f in folds)
            assert sizes == [2, 3]
            merged = np.sort(np.concatenate(folds))
            assert np.array_equal(merged, np.arange(5))

    def test_deterministic(self):
        a = make_fold_plan(100, 10, 2, seed=7)
        b = make_fold_plan(100, 10, 2, seed=7)
        for rep in range(10):
            for fa, fb in zip(a.assignments[rep], b.assignments[rep]):
                assert np.array_equal(fa, fb)

    def test_train_test_disjoint(self):
        plan = make_fold_plan(10, 2, 2, seed=3)
        train, test = plan.train_test(0, 0)
        assert set(train).isdisjoint(test)
        assert len(train) + len(test) == 10

    @pytest.mark.parametrize("reps", [0, -1])
    def test_rejects_fewer_than_one_repetition(self, reps):
        # a plan with no cell has no training fold to check or train on
        with pytest.raises(DatasetError, match=f"need at least 1 repetition, got {reps}$"):
            make_fold_plan(40, reps, 2, seed=1)

    def test_rejects_too_few_rows(self):
        with pytest.raises(DatasetError):
            make_fold_plan(1, 1, 2, seed=0)

    @given(
        n=st.integers(4, 60),
        reps=st.integers(1, 4),
        folds=st.integers(2, 4),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_partition_property(self, n, reps, folds, seed):
        if n < folds:
            return
        plan = make_fold_plan(n, reps, folds, seed)
        for rep in range(reps):
            folds_ = plan.assignments[rep]
            merged = np.sort(np.concatenate(folds_))
            assert np.array_equal(merged, np.arange(n))
            assert max(len(f) for f in folds_) - min(len(f) for f in folds_) <= 1


class TestGenerateToy:
    def test_deterministic(self):
        cfg = ToyConfig(
            (50, 50), ((0, 0), (5, 5)), (1.0, 1.0), ({0: 0.5}, {1: 0.2}), seed=4
        )
        a, b = generate_toy(cfg), generate_toy(cfg)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_single_minority_blob_positives_near_half(self):
        cfg = ToyConfig(
            (100, 100), ((0, 0), (5, 5)), (1.0, 1.0), ({0: 0.5},), seed=4
        )
        ds = generate_toy(cfg)
        pos = ds.labels[:, 0].sum()
        assert 30 <= pos <= 70
        assert ds.labels[100:, 0].sum() == 0  # blob 1 has no rule

    def test_fig1_like_irs(self, fig1_toy):
        # compute_stats is the oracle for the target imbalance windows
        st_ = compute_stats(fig1_toy)
        assert 20 <= max(st_.ir_min, st_.ir_max) <= 30
        assert 10 <= min(st_.ir_min, st_.ir_max) <= 18

    def test_rejects_fraction_one(self):
        with pytest.raises(DatasetError, match=r"\(0, 1\)"):
            ToyConfig((10, 10), ((0, 0), (1, 1)), (1.0, 1.0), ({0: 1.0},), seed=0)

    def test_rejects_nonpositive_spread(self):
        with pytest.raises(DatasetError, match="spread"):
            ToyConfig((10, 10), ((0, 0), (1, 1)), (1.0, 0.0), ({0: 0.5},), seed=0)

    def test_rejects_single_blob(self):
        with pytest.raises(DatasetError, match="2 blobs"):
            ToyConfig((10,), ((0, 0),), (1.0,), ({0: 0.5},), seed=0)


def test_scale_min_max(tiny_ds):
    scaled = scale_min_max(tiny_ds)
    assert scaled.features.min() == 0.0
    assert scaled.features.max() == 1.0
    assert np.array_equal(scaled.labels, tiny_ds.labels)


def test_scale_min_max_is_the_formula_bit_for_bit():
    rng = np.random.default_rng(4)
    features = rng.normal(size=(50, 4)) * [1.0, 1e-300, 1e300, 0.0]
    features[:, 3] = 2.5  # a constant column maps to 0
    ds = named_ds(features)
    lo, hi = features.min(axis=0), features.max(axis=0)
    want = (features - lo) / np.where(hi > lo, hi - lo, 1.0)
    assert scale_min_max(ds).features.tobytes() == want.tobytes()


def test_scale_min_max_takes_a_range_of_the_largest_float():
    top = np.finfo(float).max
    scaled = scale_min_max(named_ds([[0.0], [top], [top / 2]]))
    assert scaled.features[:, 0].tolist() == [0.0, 1.0, 0.5]


def test_scale_min_max_rejects_a_range_wider_than_a_float(recwarn):
    # x1's range, 2e308, overflows: numpy would warn and scale it to nan
    ds = named_ds([[0.0, 1e308, 1e308], [1.0, -1e308, -1e308], [2.0, 0.0, 0.0]])
    with pytest.raises(DatasetError) as exc:
        scale_min_max(ds)
    assert str(exc.value) == (
        "feature 'x1' ranges from -1e+308 to 1e+308, wider than the largest float, "
        "so it cannot be scaled"
    )
    assert recwarn.list == []
