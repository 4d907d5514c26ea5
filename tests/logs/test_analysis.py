"""Tests for log analysis measurements."""

import pytest

from repro.logs import analysis
from repro.logs.schema import UserClass


class TestVolumeCdf:
    def test_cdf_reaches_one(self, small_log):
        cdf = analysis.query_volume_cdf(small_log.month(0))
        assert cdf.cumulative_fraction[-1] == pytest.approx(1.0)

    def test_counts_descending(self, small_log):
        cdf = analysis.query_volume_cdf(small_log.month(0))
        counts = cdf.counts
        assert all(b <= a for a, b in zip(counts, counts[1:]))

    def test_coverage_monotone(self, small_log):
        cdf = analysis.query_volume_cdf(small_log.month(0))
        assert cdf.coverage_at(10) <= cdf.coverage_at(100) <= cdf.coverage_at(10_000)

    def test_coverage_at_bounds(self, small_log):
        cdf = analysis.query_volume_cdf(small_log.month(0))
        assert cdf.coverage_at(0) == 0.0
        assert cdf.coverage_at(cdf.n_items * 10) == pytest.approx(1.0)

    def test_items_for_coverage_inverse(self, small_log):
        cdf = analysis.query_volume_cdf(small_log.month(0))
        k = cdf.items_for_coverage(0.5)
        assert cdf.coverage_at(k) >= 0.5
        assert cdf.coverage_at(k - 1) < 0.5

    def test_items_for_coverage_validation(self, small_log):
        cdf = analysis.query_volume_cdf(small_log.month(0))
        with pytest.raises(ValueError):
            cdf.items_for_coverage(1.5)

    def test_empty_log(self, small_log):
        empty = small_log.window(1e12, 2e12)
        cdf = analysis.query_volume_cdf(empty)
        assert cdf.n_items == 0
        assert cdf.coverage_at(10) == 0.0

    def test_results_more_concentrated_than_queries(self, small_log):
        """Aliases funnel many queries into fewer results, so result
        coverage at the same count is at least query coverage (Fig 4)."""
        month = small_log.month(0)
        q = analysis.query_volume_cdf(month)
        r = analysis.result_volume_cdf(month)
        k = q.items_for_coverage(0.6)
        assert r.coverage_at(k) >= q.coverage_at(k) - 0.02


class TestFigure4Series:
    def test_all_subsets_present(self, small_log):
        series = analysis.figure4_series(small_log.month(0))
        assert set(series) == {
            "all",
            "navigational",
            "non_navigational",
            "smartphone",
            "featurephone",
        }

    def test_nav_more_concentrated(self, small_log):
        series = analysis.figure4_series(small_log.month(0))
        k = series["all"]["queries"].items_for_coverage(0.6)
        nav = series["navigational"]["queries"].coverage_at(k)
        non = series["non_navigational"]["queries"].coverage_at(k)
        assert nav > non

    def test_featurephone_more_concentrated(self, small_log):
        series = analysis.figure4_series(small_log.month(0))
        k = series["all"]["queries"].items_for_coverage(0.6)
        feature = series["featurephone"]["queries"].coverage_at(k)
        smart = series["smartphone"]["queries"].coverage_at(k)
        assert feature > smart


class TestRepeatability:
    def test_new_prob_in_unit_interval(self, small_log):
        probs = analysis.user_new_pair_probability(small_log.month(0))
        assert probs
        assert all(0 < p <= 1 for p in probs.values())

    def test_cdf_monotone(self, small_log):
        probs = analysis.user_new_pair_probability(small_log.month(0))
        grid, cdf = analysis.new_pair_probability_cdf(probs)
        assert cdf[0] <= cdf[-1] == pytest.approx(1.0)
        assert all(b >= a for a, b in zip(cdf, cdf[1:]))

    def test_empty_log_repeat(self, small_log):
        empty = small_log.window(1e12, 2e12)
        assert analysis.overall_repeat_rate(empty) == 0.0
        assert analysis.user_new_pair_probability(empty) == {}

    def test_repeat_rate_consistency(self, small_log):
        """Overall repeat rate equals 1 - distinct/total."""
        month = small_log.month(0)
        rate = analysis.overall_repeat_rate(month)
        assert 0 <= rate < 1

    def test_repeat_rate_by_class_keys(self, small_log):
        rates = analysis.repeat_rate_by_class(small_log.month(0))
        assert set(rates) == set(UserClass)


class TestUniqueResultRatio:
    def test_in_unit_range(self, small_log):
        ratio = analysis.unique_result_ratio(small_log.month(0), 200)
        assert 0 < ratio <= 2  # results can rarely exceed queries

    def test_zero_inputs(self, small_log):
        assert analysis.unique_result_ratio(small_log.month(0), 0) == 0.0


class TestClassMix:
    def test_shares_sum_to_one(self, small_log):
        mix = analysis.observed_class_mix(small_log)
        assert sum(mix.values()) == pytest.approx(1.0)
