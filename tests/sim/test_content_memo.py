"""``run_replay`` mines its build-month content once per (log, month,
policy).

The static and the daily-update halves of the Section 6.2.2 experiment
replay the same log against the same month-0 content.  The content is
mined once, through ``repro.sim.replay.build_cache_content`` (the name a
profiler wraps), and is re-mined for another policy or another log
object.
"""

import copy

import pytest

from repro.experiments.hitrate import daily_updates
from repro.pocketsearch.content import ContentPolicy
from repro.sim import replay, vectorized
from repro.sim.replay import CacheMode, ReplayConfig, run_replay


@pytest.fixture
def mined(monkeypatch):
    """Clears the replay caches and counts the contents mined."""
    vectorized.clear_caches()
    calls = []
    build = replay.build_cache_content

    def counting(log, policy):
        calls.append(policy)
        return build(log, policy)

    monkeypatch.setattr(replay, "build_cache_content", counting)
    yield calls
    vectorized.clear_caches()


def test_daily_updates_mines_once(mined):
    rates = daily_updates(users_per_class=2)
    assert len(mined) == 1
    # The figures of the two-mining implementation.
    assert rates["static_hit_rate"] == 0.679181748291208
    assert rates["daily_update_hit_rate"] == 0.6772069573812931


def _replay(log, policy):
    return run_replay(
        log,
        ReplayConfig(users_per_class=1, policy=policy),
        modes=(CacheMode.COMMUNITY_ONLY,),
    )[CacheMode.COMMUNITY_ONLY]


def test_other_policy_or_log_mines_again(mined, small_log):
    policy = ReplayConfig().policy
    first = _replay(small_log, policy).overall_hit_rate()
    assert _replay(small_log, policy).overall_hit_rate() == first
    assert len(mined) == 1
    _replay(small_log, ContentPolicy(target_coverage=0.3))
    assert len(mined) == 2
    assert _replay(copy.copy(small_log), policy).overall_hit_rate() == first
    assert len(mined) == 3


def test_clear_caches_drops_the_memo(mined, small_log):
    policy = ReplayConfig().policy
    _replay(small_log, policy)
    vectorized.clear_caches()
    _replay(small_log, policy)
    assert len(mined) == 2
