"""Integration tests for the Section 6.2 replay harness."""

import pytest

from repro.logs.schema import MONTH_SECONDS, UserClass
from repro.pocketsearch.content import ContentPolicy, build_cache_content
from repro.sim.replay import (
    CacheMode,
    ReplayConfig,
    make_cache,
    replay_one_user,
    run_replay,
    select_replay_users,
)


@pytest.fixture(scope="module")
def small_replay(request):
    small_log = request.getfixturevalue("small_log")
    return run_replay(
        small_log,
        ReplayConfig(users_per_class=8),
        modes=CacheMode.ALL,
    )


class TestUserSelection:
    def test_selection_respects_floor(self, small_log):
        selected = select_replay_users(small_log, month=1, users_per_class=5)
        volumes = small_log.user_monthly_volumes(month=1)
        for user_class, uids in selected.items():
            for uid in uids:
                assert volumes[uid] >= 20

    def test_selection_capped(self, small_log):
        selected = select_replay_users(small_log, month=1, users_per_class=3)
        assert all(len(uids) <= 3 for uids in selected.values())

    def test_selection_deterministic(self, small_log):
        a = select_replay_users(small_log, 1, 5, seed=1)
        b = select_replay_users(small_log, 1, 5, seed=1)
        assert a == b


class TestCacheModes:
    def test_community_only_never_learns(self, small_log):
        content = build_cache_content(
            small_log.month(0), ContentPolicy(max_pairs=100)
        )
        cache = make_cache(content, CacheMode.COMMUNITY_ONLY)
        assert not cache.personalization_enabled
        cache.record_click("new", "www.new.com")
        assert not cache.lookup("new").hit

    def test_personalization_only_starts_empty(self, small_log):
        content = build_cache_content(
            small_log.month(0), ContentPolicy(max_pairs=100)
        )
        cache = make_cache(content, CacheMode.PERSONALIZATION_ONLY)
        assert cache.hashtable.n_pairs == 0

    def test_full_mode_has_both(self, small_log):
        content = build_cache_content(
            small_log.month(0), ContentPolicy(max_pairs=100)
        )
        cache = make_cache(content, CacheMode.FULL)
        assert cache.personalization_enabled
        assert cache.hashtable.n_pairs > 0


class TestReplayResults:
    def test_all_modes_present(self, small_replay):
        assert set(small_replay) == set(CacheMode.ALL)

    def test_full_dominates_components(self, small_replay):
        """The union cache can only beat either component (Figure 17)."""
        full = small_replay[CacheMode.FULL].overall_hit_rate()
        community = small_replay[CacheMode.COMMUNITY_ONLY].overall_hit_rate()
        personal = small_replay[
            CacheMode.PERSONALIZATION_ONLY
        ].overall_hit_rate()
        assert full >= community - 0.02
        assert full >= personal - 0.02

    def test_hit_rates_in_unit_interval(self, small_replay):
        for result in small_replay.values():
            for user in result.users:
                assert 0 <= user.metrics.hit_rate <= 1

    def test_by_class_reporting(self, small_replay):
        by_class = small_replay[CacheMode.FULL].hit_rate_by_class()
        assert set(by_class) == set(UserClass)

    def test_windowed_reporting(self, small_replay):
        result = small_replay[CacheMode.FULL]
        t0 = MONTH_SECONDS
        week1 = result.hit_rate_by_class_windowed(t0, t0 + 7 * 24 * 3600)
        assert set(week1) == set(UserClass)

    def test_by_class_agrees_with_full_window(self, small_replay):
        """Both by-class reports share one bucketing helper: over the whole
        replay month (every query in window) they must agree exactly, and
        per-class means must be reproducible from the raw user metrics."""
        import math

        result = small_replay[CacheMode.FULL]
        by_class = result.hit_rate_by_class()
        windowed = result.hit_rate_by_class_windowed(0, float("inf"))
        for user_class in UserClass:
            expected = [
                u.metrics.hit_rate
                for u in result.users
                if u.user_class == user_class
            ]
            if not expected:
                assert math.isnan(by_class[user_class])
                assert math.isnan(windowed[user_class])
                continue
            mean = sum(expected) / len(expected)
            assert by_class[user_class] == pytest.approx(mean, abs=1e-12)
            assert windowed[user_class] == pytest.approx(
                by_class[user_class], abs=1e-12
            )

    def test_navigational_breakdown_sums_to_one(self, small_replay):
        breakdown = small_replay[CacheMode.FULL].navigational_breakdown()
        for split in breakdown.values():
            total = split["navigational"] + split["non_navigational"]
            assert total == pytest.approx(1.0) or total == 0.0


class TestReplayUser:
    def test_replays_whole_month(self, small_log):
        content = build_cache_content(
            small_log.month(0), ContentPolicy(max_pairs=200)
        )
        selected = select_replay_users(small_log, 1, 1)
        user_class, uid = next(
            (c, uids[0]) for c, uids in selected.items() if uids
        )
        metrics = replay_one_user(
            small_log, content, [], ReplayConfig(), CacheMode.FULL,
            user_class, uid, MONTH_SECONDS, 2 * MONTH_SECONDS,
        ).metrics
        expected = small_log.for_user(uid).month(1).n_events
        assert metrics.count == expected

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ReplayConfig(users_per_class=0)
        with pytest.raises(ValueError):
            ReplayConfig(build_month=1, replay_month=1)
