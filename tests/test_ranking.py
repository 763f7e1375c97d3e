import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2, norm

from uclso.ranking import (
    RankingError,
    average_ranks,
    finner_adjust,
    friedman,
    ranked_tables,
)


class TestAverageRanks:
    def test_simple_row(self):
        rt = average_ranks(np.array([[0.9, 0.8, 0.7]]), ["a", "b", "c"])
        assert rt.ranks[0].tolist() == [1.0, 2.0, 3.0]

    def test_midrank_ties(self):
        rt = average_ranks(np.array([[0.9, 0.9, 0.7]]), ["a", "b", "c"])
        assert rt.ranks[0].tolist() == [1.5, 1.5, 3.0]

    def test_row_sums_invariant(self):
        rng = np.random.default_rng(0)
        m = 6
        scores = np.round(rng.random((10, m)), 1)  # rounding forces ties
        rt = average_ranks(scores, [f"m{i}" for i in range(m)])
        expected = m * (m + 1) / 2
        assert np.allclose(rt.ranks.sum(axis=1), expected)

    def test_published_average_rank_reproduction(self):
        # 10 methods over 12 datasets; the best method is first on 9 rows
        # and second on the remaining 3: average rank (9*1 + 3*2)/12 = 1.25
        m = 10
        rows = []
        for i in range(12):
            order = np.arange(m)
            if i < 9:
                ranks = order + 1  # method 0 first
            else:
                ranks = np.array([2, 1] + list(range(3, m + 1)))
            rows.append(1.0 - ranks / (m + 1.0))  # scores consistent with ranks
        rt = average_ranks(np.array(rows), [f"m{i}" for i in range(m)])
        assert rt.average_ranks[0] == pytest.approx(1.25)

    def test_rejects_non_finite(self):
        with pytest.raises(RankingError):
            average_ranks(np.array([[np.nan, 1.0]]), ["a", "b"])


class TestFriedman:
    def test_constant_ranking_chi_square_eight(self):
        # hand derivation: N=4, M=3, ranks always (1,2,3):
        # 12*4/(3*4) * sum((R-2)^2) = 4 * 2 = 8
        scores = np.array([[3.0, 2.0, 1.0]] * 4)
        rt = average_ranks(scores, ["a", "b", "c"])
        res = friedman(rt)
        assert res.chi_square == pytest.approx(8.0)
        assert res.dof == 2

    def test_all_tied_degenerate(self):
        rt = average_ranks(np.ones((4, 3)), ["a", "b", "c"])
        res = friedman(rt)
        assert res.chi_square == 0.0
        assert res.p_value == 1.0

    def test_control_is_best_ranked(self):
        scores = np.array([[0.9, 0.5, 0.1], [0.8, 0.6, 0.2], [0.9, 0.4, 0.3]])
        rt = average_ranks(scores, ["good", "mid", "bad"])
        res = friedman(rt)
        assert res.control == "good"
        assert {c.method for c in res.comparisons} == {"mid", "bad"}

    def test_adjusted_ge_raw(self):
        rng = np.random.default_rng(1)
        rt = average_ranks(rng.random((8, 5)), [f"m{i}" for i in range(5)])
        res = friedman(rt)
        for c in res.comparisons:
            assert c.p_adjusted >= c.p_raw - 1e-15
            assert c.significant == (c.p_adjusted < res.alpha)

    def test_rejects_degenerate_table(self):
        rt = average_ranks(np.array([[1.0, 2.0]]), ["a", "b"])
        with pytest.raises(RankingError):
            friedman(rt)


    @pytest.mark.parametrize("dof", range(1, 11))
    def test_p_values_equal_scipy_stats(self, dof):
        # chdtrc and ndtr are the functions chi2.sf and norm.sf evaluate;
        # tables of 2 to 40 datasets, with and without rank ties
        rng = np.random.default_rng(dof)
        names = [f"m{i}" for i in range(dof + 1)]
        for n_data in (2, 3, 5, 12, 40):
            for levels in (3, 1000):
                scores = rng.integers(0, levels, (n_data, dof + 1)).astype(float)
                res = friedman(average_ranks(scores, names))
                assert res.dof == dof
                assert res.p_value == float(chi2.sf(res.chi_square, dof))
                for c in res.comparisons:
                    assert c.p_raw == float(2.0 * norm.sf(abs(c.z)))


class TestFinner:
    def test_formula(self):
        p = np.array([0.01, 0.04, 0.03])
        adj = finner_adjust(p)
        # ascending order: 0.01, 0.03, 0.04 with m=3
        assert adj[0] == pytest.approx(1 - (1 - 0.01) ** 3)
        assert adj[2] == pytest.approx(
            max(1 - (1 - 0.01) ** 3, 1 - (1 - 0.03) ** (3 / 2))
        )

    @given(
        st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=10)
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_step_down_order(self, p_list):
        p = np.array(p_list)
        adj = finner_adjust(p)
        assert (adj >= p - 1e-12).all()
        assert (adj <= 1.0).all()
        order = np.argsort(p, kind="stable")
        assert (np.diff(adj[order]) >= -1e-12).all()


def test_critical_difference_rows():
    scores = np.array([[3.0, 2.0, 1.0]] * 10)
    names = [f"d{i}" for i in range(10)]
    _, rows = ranked_tables(scores, names, ["a", "b", "c"])["cd"]
    assert [r[0] for r in rows] == ["a", "b", "c"]  # sorted by average rank
    assert rows[0][2] == 0  # control always in group 0
    assert rows[-1][2] == 1  # clearly worse method split off


def test_ranked_tables_by_hand():
    # d2 ties a and b for first place, so both take rank 1.5. Rank sums
    # 3.5, 6.5 and 8 give 12 / (3 * 3 * 4) * 118.5 - 3 * 3 * 4 = 3.5, and
    # d2's tie group of two corrects it by 1 - 6 / (3 * 3 * 8) = 11 / 12,
    # to 42 / 11, whose chi-square tail at 2 dof is exp(-21 / 11). The
    # control is a; each other method's z is its average rank's distance
    # from a's over sqrt(3 * 4 / (6 * 3)), with p = erfc(z / sqrt 2), and
    # Finner adjusts the smaller p (c's) to 1 - (1 - p)^2 and raises b's
    # to at least that. No adjusted p is below 0.05, so every cd group is 0
    scores = np.array([[0.9, 0.8, 0.7], [0.6, 0.6, 0.5], [0.9, 0.2, 0.5]])
    tables = ranked_tables(scores, ["d1", "d2", "d3"], ["a", "b", "c"])
    z_b, z_c = math.sqrt(1.5), 1.5 * math.sqrt(1.5)
    p_b, p_c = (math.erfc(z / math.sqrt(2)) for z in (z_b, z_c))
    adj_c = 1 - (1 - p_c) ** 2
    expected = {
        "rank": (
            ["dataset", "a_score", "a_rank", "b_score", "b_rank", "c_score", "c_rank"],
            [
                ["d1", 0.9, 1.0, 0.8, 2.0, 0.7, 3.0],
                ["d2", 0.6, 1.5, 0.6, 1.5, 0.5, 3.0],
                ["d3", 0.9, 1.0, 0.2, 3.0, 0.5, 2.0],
                ["average_rank", "", 3.5 / 3, "", 6.5 / 3, "", 8 / 3],
            ],
        ),
        "friedman": (
            ["field", "value", "p_raw", "p_adjusted", "significant"],
            [
                ["chi_square", 42 / 11],
                ["dof", 2],
                ["p_value", math.exp(-21 / 11)],
                ["control", "a"],
                ["alpha", 0.05],
                ["vs_b", z_b, p_b, max(p_b, adj_c), 0],
                ["vs_c", z_c, p_c, adj_c, 0],
            ],
        ),
        "cd": (
            ["method", "avg_rank", "group"],
            [("a", 3.5 / 3, 0), ("b", 6.5 / 3, 0), ("c", 8 / 3, 0)],
        ),
    }
    assert list(tables) == list(expected)
    for stem, (header, rows) in expected.items():
        assert tables[stem][0] == header
        assert len(tables[stem][1]) == len(rows)
        for got, want in zip(tables[stem][1], rows):
            assert got == pytest.approx(want, rel=1e-12)
            # the file's text follows each cell's type: an int, not a bool
            # or a numpy scalar, and a float, not a numpy float
            assert list(map(type, got)) == list(map(type, want))


def test_ranked_tables_rejects_dataset_names_of_another_length():
    with pytest.raises(RankingError, match="^dataset_names length mismatch$"):
        ranked_tables(np.ones((3, 2)), ["d1", "d2"], ["a", "b"])
