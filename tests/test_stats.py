import math

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from idsforge.errors import InputError
from idsforge.stats import (RankTable, f_distribution_sf,
                            friedman_from_mean_ranks, friedman_test,
                            load_metric_table, nemenyi_cd, rank_algorithms,
                            regularized_incomplete_beta)

ALGORITHMS = ["Voting", "Stacking", "AdaBoost", "GBM", "kNN", "CART", "MLP"]
MEAN_RANKS_ACCURACY = [1.667, 3.133, 3.867, 2.067, 5.467, 4.867, 6.933]
MEAN_RANKS_ADR = [1.467, 3.600, 3.733, 3.400, 5.533, 3.467, 6.800]
MEAN_RANKS_FAR = [1.867, 2.733, 3.333, 4.000, 5.533, 4.533, 6.000]


class TestIncompleteBeta:
    @settings(max_examples=120, deadline=None)
    @given(
        a=st.floats(min_value=0.25, max_value=60.0),
        b=st.floats(min_value=0.25, max_value=60.0),
        x=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_matches_scipy(self, a, b, x):
        assert regularized_incomplete_beta(x, a, b) == pytest.approx(
            scipy.special.betainc(a, b, x), abs=1e-9)

    def test_endpoints(self):
        assert regularized_incomplete_beta(0.0, 3.0, 4.0) == 0.0
        assert regularized_incomplete_beta(1.0, 3.0, 4.0) == 1.0

    def test_bad_shapes_rejected(self):
        with pytest.raises(InputError):
            regularized_incomplete_beta(0.5, 0.0, 1.0)


class TestFSurvival:
    @settings(max_examples=80, deadline=None)
    @given(
        f=st.floats(min_value=0.0, max_value=50.0),
        df1=st.integers(min_value=1, max_value=30),
        df2=st.integers(min_value=1, max_value=60),
    )
    @example(f=2.123e-17, df1=1, df2=2)
    @example(f=2.94e-17, df1=1, df2=1)
    def test_matches_scipy(self, f, df1, df2):
        # The reference is the complemented beta at y = 1 - x formed without
        # rounding; scipy.stats.f.sf rounds x itself and returns 1.0 for
        # f=2.94e-17, df1=df2=1.
        y = df1 * f / (df1 * f + df2)
        assert f_distribution_sf(f, df1, df2) == pytest.approx(
            scipy.special.betaincc(df1 / 2, df2 / 2, y), abs=1e-9)

    def test_infinite_statistic(self):
        assert f_distribution_sf(math.inf, 3, 10) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(
        df1=st.integers(min_value=1, max_value=12),
        df2=st.integers(min_value=1, max_value=30),
        f_lo=st.floats(min_value=0.0, max_value=20.0),
        bump=st.floats(min_value=1e-6, max_value=10.0),
    )
    def test_monotone_in_statistic(self, df1, df2, f_lo, bump):
        assert f_distribution_sf(f_lo + bump, df1, df2) <= f_distribution_sf(f_lo, df1, df2)


class TestRankAlgorithms:
    def test_descending_metric(self):
        table = rank_algorithms([[0.9, 0.8, 0.7]], higher_is_better=True)
        assert list(table.ranks[0]) == [1.0, 2.0, 3.0]

    def test_mid_rank_ties(self):
        table = rank_algorithms([[0.9, 0.9, 0.7]], higher_is_better=True)
        assert list(table.ranks[0]) == [1.5, 1.5, 3.0]

    def test_lower_is_better(self):
        table = rank_algorithms([[0.1, 0.3, 0.2]], higher_is_better=False)
        assert list(table.ranks[0]) == [1.0, 3.0, 2.0]

    def test_shape_validation(self):
        with pytest.raises(InputError):
            rank_algorithms([[1.0]])
        with pytest.raises(InputError):
            rank_algorithms([[np.nan, 1.0]])

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        n=st.integers(min_value=1, max_value=6),
        k=st.integers(min_value=2, max_value=9),
    )
    def test_row_sums(self, seed, n, k):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 4, size=(n, k)).astype(float)  # force ties
        table = rank_algorithms(values)
        expected = k * (k + 1) / 2.0
        assert np.allclose(table.ranks.sum(axis=1), expected)


class TestFriedman:
    def test_paper_accuracy_row(self):
        result = friedman_from_mean_ranks(MEAN_RANKS_ACCURACY, n=3)
        assert result.chi2_f == pytest.approx(13.80, abs=0.01)
        assert result.f_statistic == pytest.approx(6.5665, abs=0.005)
        assert result.p_value == pytest.approx(0.0029, abs=0.002)
        assert result.reject_at[0.05] and result.reject_at[0.1]

    def test_paper_adr_row(self):
        result = friedman_from_mean_ranks(MEAN_RANKS_ADR, n=3)
        assert result.f_statistic == pytest.approx(3.3242, abs=0.005)
        assert result.p_value == pytest.approx(0.0363, abs=0.002)

    def test_paper_far_row(self):
        result = friedman_from_mean_ranks(MEAN_RANKS_FAR, n=3)
        assert result.f_statistic == pytest.approx(1.7904, abs=0.005)
        assert result.p_value == pytest.approx(0.1839, abs=0.002)
        assert not result.reject_at[0.05] and not result.reject_at[0.1]

    @pytest.mark.parametrize("ranks", [[1.0, 7.0, -2.0], [1.0, 1e308, 2.0],
                                       [0.98, 2.0, 3.0], [1.0, 2.0, 3.02]])
    def test_mean_rank_outside_one_to_k_rejected(self, ranks):
        with pytest.raises(InputError, match="outside"):
            friedman_from_mean_ranks(ranks, n=3)

    def test_rounded_mean_ranks_at_the_edges_accepted(self):
        result = friedman_from_mean_ranks([0.995, 2.0, 3.005], n=3)
        assert result.chi2_f == pytest.approx(6.0, abs=0.1)

    def test_identical_rankings_give_zero(self):
        ranks = RankTable(
            algorithms=["a", "b", "c"],
            datasets=["d1", "d2"],
            ranks=np.array([[2.0, 2.0, 2.0], [2.0, 2.0, 2.0]]),
            higher_is_better=True,
        )
        result = friedman_test(ranks)
        assert result.chi2_f == pytest.approx(0.0)
        assert result.f_statistic == pytest.approx(0.0)
        assert result.p_value == pytest.approx(1.0)

    def test_perfectly_consistent_rankings_saturate(self):
        # k=2, n=3, one algorithm always first: chi2 hits its cap n(k-1)=3
        ranks = RankTable(
            algorithms=["a", "b"],
            datasets=["d1", "d2", "d3"],
            ranks=np.array([[1.0, 2.0]] * 3),
            higher_is_better=True,
        )
        result = friedman_test(ranks)
        assert result.chi2_f == pytest.approx(3.0)
        assert math.isinf(result.f_statistic)
        assert result.p_value == 0.0

    def test_mean_rank_invariant_from_table(self):
        rng = np.random.default_rng(0)
        table = rank_algorithms(rng.random((5, 6)))
        result = friedman_test(table)
        k = 6
        assert result.mean_ranks.mean() == pytest.approx((k + 1) / 2.0, abs=1e-9)
        assert result.df1 == k - 1
        assert result.df2 == (k - 1) * 4


class TestNemenyi:
    def test_paper_critical_differences(self):
        res_05 = nemenyi_cd(MEAN_RANKS_ACCURACY, n=3, alpha=0.05, algorithms=ALGORITHMS)
        assert res_05.q_alpha == pytest.approx(2.949)
        assert res_05.cd == pytest.approx(5.2016, abs=1e-3)
        res_10 = nemenyi_cd(MEAN_RANKS_ACCURACY, n=3, alpha=0.1, algorithms=ALGORITHMS)
        assert res_10.q_alpha == pytest.approx(2.693)
        assert res_10.cd == pytest.approx(4.7501, abs=1e-3)

    def test_paper_pair_flags(self):
        res_05 = nemenyi_cd(MEAN_RANKS_ACCURACY, n=3, alpha=0.05, algorithms=ALGORITHMS)
        assert [(a, b) for a, b, _ in res_05.significant_pairs] == [("Voting", "MLP")]
        res_10 = nemenyi_cd(MEAN_RANKS_ACCURACY, n=3, alpha=0.1, algorithms=ALGORITHMS)
        pairs = {(a, b) for a, b, _ in res_10.significant_pairs}
        assert pairs == {("Voting", "MLP"), ("GBM", "MLP")}

    def test_pair_listing_matches_threshold(self):
        res = nemenyi_cd([1.0, 2.0, 6.0], n=4, alpha=0.05, algorithms=["a", "b", "c"])
        for a, b, diff in res.significant_pairs:
            assert diff >= res.cd
        flagged = {(a, b) for a, b, _ in res.significant_pairs}
        mean = {"a": 1.0, "b": 2.0, "c": 6.0}
        for x, y in [("a", "b"), ("a", "c"), ("b", "c")]:
            expected = abs(mean[x] - mean[y]) >= res.cd
            assert ((x, y) in flagged) == expected

    def test_unsupported_k_rejected(self):
        with pytest.raises(InputError):
            nemenyi_cd(list(range(1, 13)), n=3, alpha=0.05)
        with pytest.raises(InputError):
            nemenyi_cd([1.0, 2.0], n=3, alpha=0.01)


class TestMetricTableIO:
    def test_named_rows(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("dataset,algo1,algo2\nD1,0.9,0.8\nD2,0.7,0.75\n", encoding="utf-8")
        values, algorithms, datasets = load_metric_table(str(path))
        assert algorithms == ["algo1", "algo2"]
        assert datasets == ["D1", "D2"]
        assert values[1, 1] == pytest.approx(0.75)

    def test_unnamed_rows(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("algo1,algo2\n0.9,0.8\n0.7,0.75\n", encoding="utf-8")
        values, algorithms, datasets = load_metric_table(str(path))
        assert algorithms == ["algo1", "algo2"]
        assert datasets == ["D1", "D2"]

    def test_bad_cell_rejected(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("dataset,a,b\nD1,oops,0.5\n", encoding="utf-8")
        with pytest.raises(InputError):
            load_metric_table(str(path))
