import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from uclso.metrics import (
    ConfusionCounts,
    MetricError,
    auc_label,
    confusion,
    f1_label,
    macro_average,
    midranks,
)


def brute_force_auc(scores, truth):
    """Full pairwise enumeration with half-credit ties."""
    pos = [s for s, t in zip(scores, truth) if t == 1]
    neg = [s for s, t in zip(scores, truth) if t == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def brute_force_f1(y_true, y_pred):
    tp = sum(1 for t, p in zip(y_true, y_pred) if t == 1 and p == 1)
    fp = sum(1 for t, p in zip(y_true, y_pred) if t == 0 and p == 1)
    fn = sum(1 for t, p in zip(y_true, y_pred) if t == 1 and p == 0)
    return 0.0 if 2 * tp + fp + fn == 0 else 2 * tp / (2 * tp + fp + fn)


class TestF1:
    def test_perfect(self):
        assert f1_label(ConfusionCounts(5, 0, 0, 0)) == 1.0

    def test_degenerate_zero_convention(self):
        assert f1_label(ConfusionCounts(0, 0, 10, 0)) == 0.0

    def test_hand_arithmetic(self):
        assert f1_label(ConfusionCounts(3, 1, 0, 2)) == pytest.approx(6 / 9)

    def test_confusion_counts(self):
        c = confusion([1, 1, 0, 0, 1], [1, 0, 0, 1, 1])
        assert (c.tp, c.fp, c.tn, c.fn) == (2, 1, 1, 1)


class TestAuc:
    def test_perfect_ranking(self):
        assert auc_label([3.0, 1.0, 2.0], [1, 0, 0]) == 1.0

    def test_all_ties(self):
        assert auc_label([0.5] * 6, [1, 1, 0, 0, 0, 1]) == 0.5

    def test_single_class_undefined(self):
        with pytest.raises(MetricError, match="single class"):
            auc_label([1.0, 2.0], [1, 1])

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 21))
            truth = rng.integers(0, 2, n)
            if truth.sum() in (0, n):
                continue
            scores = np.round(rng.normal(size=n), 1)  # rounding forces ties
            assert auc_label(scores, truth) == pytest.approx(
                brute_force_auc(scores, truth), abs=1e-12
            )

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_invariant_under_monotone_transform(self, data):
        n = data.draw(st.integers(4, 15))
        truth = np.array(data.draw(
            st.lists(st.integers(0, 1), min_size=n, max_size=n)
        ))
        if truth.sum() in (0, n):
            return
        scores = np.array(data.draw(
            st.lists(st.integers(-50, 50), min_size=n, max_size=n)
        ), dtype=float)
        # power-of-two scale + offset: exactly order- and tie-preserving
        a = 2.0 ** data.draw(st.integers(-3, 3))
        b = data.draw(st.floats(-5, 5))
        transformed = a * scores + b
        assert auc_label(scores, truth) == pytest.approx(
            auc_label(transformed, truth), abs=1e-9
        )


# a few values, so that ties are heavy, with both zeros and both infinities
TIED_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e300, np.inf, -np.inf])


def midrank_auc(scores, truth):
    """The midrank formula: (sum of positive midranks - n_pos (n_pos + 1)
    / 2) / (n_pos n_neg)."""
    n_pos, n_neg = int((truth == 1).sum()), int((truth == 0).sum())
    pos_rank_sum = float(midranks(scores)[truth == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


class TestAucProperty:
    @given(st.lists(st.tuples(st.one_of(TIED_VALUES, st.floats(allow_nan=False)),
                              st.booleans()), min_size=2, max_size=300))
    @settings(max_examples=300, deadline=None)
    def test_equals_midrank_formula_bit_for_bit(self, pairs):
        scores = np.array([s for s, _ in pairs])
        truth = np.array([t for _, t in pairs], dtype=int)
        if truth.sum() in (0, truth.size):
            return
        got = auc_label(scores, truth)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(midrank_auc(scores, truth)).tobytes()

    @given(st.lists(TIED_VALUES, min_size=1, max_size=50), st.integers(0, 50))
    @settings(max_examples=100, deadline=None)
    def test_single_positive(self, negatives, at):
        scores = np.array(negatives)
        at = min(at, scores.size)
        scores = np.insert(scores, at, scores[at % scores.size])
        truth = np.zeros(scores.size, dtype=int)
        truth[at] = 1
        assert auc_label(scores, truth) == midrank_auc(scores, truth)
        assert auc_label(scores, truth) == brute_force_auc(scores, truth)

    @given(st.lists(st.floats(allow_nan=False), min_size=2, max_size=40), st.data())
    @settings(max_examples=100, deadline=None)
    def test_any_nan_gives_nan(self, values, data):
        scores = np.array(values)
        scores[data.draw(st.integers(0, scores.size - 1))] = np.nan
        truth = np.arange(scores.size) % 2
        assert np.isnan(auc_label(scores, truth))

    def test_signed_zeros_tie(self):
        assert auc_label(np.array([0.0, -0.0, -0.0, 0.0]), np.array([1, 0, 1, 0])) == 0.5


class TestMidranks:
    @given(st.lists(st.one_of(TIED_VALUES, st.floats(allow_nan=False)),
                    min_size=1, max_size=80))
    @settings(max_examples=500, deadline=None)
    def test_equals_scipy_rankdata_bit_for_bit(self, values):
        x = np.array(values)
        got = midranks(x)
        assert got.dtype == np.float64
        assert got.tobytes() == rankdata(x, method="average").tobytes()

    @given(st.lists(TIED_VALUES, min_size=1, max_size=400))
    @settings(max_examples=200, deadline=None)
    def test_heavy_ties_equal_scipy_rankdata(self, values):
        x = np.array(values)
        assert midranks(x).tobytes() == rankdata(x, method="average").tobytes()

    def test_length_one(self):
        assert midranks(np.array([-np.inf])).tolist() == [1.0]

    def test_signed_zeros_tie(self):
        assert midranks(np.array([0.0, -0.0, 1.0, -0.0])).tolist() == [2.0, 2.0, 4.0, 2.0]

    def test_nan_gives_all_nan_as_rankdata_does(self):
        x = np.array([1.0, np.nan, 0.0])
        assert np.isnan(midranks(x)).all()
        assert np.isnan(rankdata(x, method="average")).all()

    def test_auc_of_nan_scores_is_nan(self):
        assert np.isnan(auc_label([0.2, np.nan, 0.9, 0.1], [1, 0, 1, 0]))


class TestMacroAverage:
    def test_simple(self):
        assert macro_average(np.array([1.0, 0.0])) == 0.5

    def test_single_label_identity(self):
        assert macro_average(np.array([0.42])) == pytest.approx(0.42)

    def test_hand_arithmetic(self):
        vals = np.array([2 / 3, 1.0, 0.5])
        assert macro_average(vals) == pytest.approx((2 / 3 + 1.0 + 0.5) / 3)

    def test_mask_excludes_undefined(self):
        vals = np.array([0.2, 0.8, 123.0])
        mask = np.array([True, True, False])
        assert macro_average(vals, mask) == pytest.approx(0.5)

    def test_no_defined_labels(self):
        with pytest.raises(MetricError):
            macro_average(np.array([1.0]), np.array([False]))
