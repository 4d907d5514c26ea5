"""Tests for cache content generation (Section 5.1)."""

import pytest

from repro.pocketsearch.content import (
    ContentPolicy,
    build_cache_content,
    build_cache_content_from_model,
    coverage_curve,
    triplets_from_log,
)


class TestPolicyValidation:
    def test_requires_some_threshold(self):
        with pytest.raises(ValueError):
            ContentPolicy()

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ContentPolicy(saturation_volume=0)
        with pytest.raises(ValueError):
            ContentPolicy(target_coverage=1.5)


class TestTriplets:
    def test_sorted_by_volume(self, small_log):
        triplets = triplets_from_log(small_log.month(0))
        volumes = [t.volume for t in triplets]
        assert all(b <= a for a, b in zip(volumes, volumes[1:]))

    def test_volumes_sum_to_events(self, small_log):
        month = small_log.month(0)
        triplets = triplets_from_log(month)
        assert sum(t.volume for t in triplets) == month.n_events

    def test_empty_log(self, small_log):
        assert triplets_from_log(small_log.window(1e12, 2e12)) == []


class TestSelectionWalk:
    def test_target_coverage(self, small_log):
        content = build_cache_content(
            small_log.month(0), ContentPolicy(target_coverage=0.5)
        )
        assert content.coverage == pytest.approx(0.5, abs=0.02)

    def test_max_pairs(self, small_log):
        content = build_cache_content(
            small_log.month(0), ContentPolicy(max_pairs=50)
        )
        assert content.n_pairs == 50

    def test_saturation_threshold(self, small_log):
        month = small_log.month(0)
        content = build_cache_content(
            month, ContentPolicy(saturation_volume=0.001)
        )
        floor = 0.001 * month.n_events
        assert all(e.volume >= floor for e in content.entries)

    def test_flash_budget_respected(self, small_log):
        budget = 50_000
        content = build_cache_content(
            small_log.month(0), ContentPolicy(max_flash_bytes=budget)
        )
        assert content.flash_bytes <= budget

    def test_dram_budget_respected(self, small_log):
        content = build_cache_content(
            small_log.month(0), ContentPolicy(max_dram_bytes=4000)
        )
        assert content.approx_dram_bytes <= 4000

    def test_entries_descending_volume(self, small_log):
        content = build_cache_content(
            small_log.month(0), ContentPolicy(max_pairs=200)
        )
        volumes = [e.volume for e in content.entries]
        assert all(b <= a for a, b in zip(volumes, volumes[1:]))

    def test_scores_normalized_per_query(self, small_log):
        content = build_cache_content(
            small_log.month(0), ContentPolicy(target_coverage=0.5)
        )
        assert all(0 < e.score <= 1 for e in content.entries)

    def test_scores_are_volume_over_query_total(self, small_log):
        month = small_log.month(0)
        totals = {}
        for triplet in triplets_from_log(month):
            totals[triplet.query] = totals.get(triplet.query, 0) + triplet.volume
        content = build_cache_content(
            month, ContentPolicy(target_coverage=0.9)
        )
        for e in content.entries:
            assert e.score == e.volume / totals[e.query]

    def test_empty_log(self, small_log):
        content = build_cache_content(
            small_log.window(1e12, 2e12), ContentPolicy(max_pairs=10)
        )
        assert content.n_pairs == 0
        assert content.coverage == 0.0


class TestContentAccounting:
    def test_shared_flash_smaller_than_unshared(self, small_log):
        content = build_cache_content(
            small_log.month(0), ContentPolicy(target_coverage=0.5)
        )
        assert content.flash_bytes <= content.flash_bytes_unshared

    def test_unique_counts(self, small_log):
        content = build_cache_content(
            small_log.month(0), ContentPolicy(max_pairs=100)
        )
        assert content.n_unique_queries <= content.n_pairs
        assert content.n_unique_results <= content.n_pairs


class TestModelContent:
    def test_matches_policy(self, small_community):
        content = build_cache_content_from_model(
            small_community, ContentPolicy(target_coverage=0.4)
        )
        assert content.coverage == pytest.approx(0.4, abs=0.02)

    def test_scores_in_range(self, small_community):
        content = build_cache_content_from_model(
            small_community, ContentPolicy(max_pairs=300)
        )
        assert all(0 < e.score <= 1 for e in content.entries)

    def test_includes_multi_result_queries(self, small_community):
        content = build_cache_content_from_model(
            small_community, ContentPolicy(target_coverage=0.55)
        )
        assert content.n_unique_queries < content.n_pairs


class TestCoverageCurve:
    def test_monotone(self, small_log):
        curve = coverage_curve(small_log.month(0), [1, 10, 100, 1000])
        values = [v for _, v in curve]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_zero_and_overflow(self, small_log):
        month = small_log.month(0)
        curve = dict(coverage_curve(month, [0, 10**9]))
        assert curve[0] == 0.0
        assert curve[10**9] == pytest.approx(1.0)
