"""Differential equivalence: sharded parallel replay == serial replay.

The contract under test is *bit-identity*, not statistical closeness:
``run_replay(workers=N)`` must produce exactly the serial result — same
users in the same order, same per-query outcomes, same aggregate
reports — for every cache mode, with and without daily updates, and
for any shard size.  Comparisons therefore use ``==`` (never
``pytest.approx``) with explicit nan handling.
"""

import math

import pytest

from repro.logs.schema import MONTH_SECONDS, UserClass
from repro.sim import shard
from repro.sim.replay import CacheMode, ReplayConfig, run_replay

USERS_PER_CLASS = 3
WEEK_S = 7 * 24 * 3600


def _identical_scalar(a, b, context=""):
    if isinstance(a, float) and math.isnan(a):
        assert isinstance(b, float) and math.isnan(b), context
    else:
        assert a == b, f"{context}: {a!r} != {b!r}"


def _identical_mapping(a, b, context=""):
    assert a.keys() == b.keys(), context
    for key in a:
        va, vb = a[key], b[key]
        if isinstance(va, dict):
            _identical_mapping(va, vb, f"{context}[{key}]")
        else:
            _identical_scalar(va, vb, f"{context}[{key}]")


def assert_replay_identical(serial, parallel):
    """Every observable of a ReplayResult must match bit-for-bit."""
    assert serial.mode == parallel.mode
    assert len(serial.users) == len(parallel.users)
    for us, up in zip(serial.users, parallel.users):
        ctx = f"user {us.user_id}"
        assert us.user_id == up.user_id, ctx
        assert us.user_class is up.user_class, ctx
        assert us.metrics.count == up.metrics.count, ctx
        assert us.metrics.hits == up.metrics.hits, ctx
        _identical_scalar(us.metrics.hit_rate, up.metrics.hit_rate, ctx)
        _identical_scalar(
            us.metrics.total_latency_s, up.metrics.total_latency_s, ctx
        )
        _identical_scalar(
            us.metrics.total_energy_j, up.metrics.total_energy_j, ctx
        )
        # Collectors retain every QueryOutcome: the full per-query
        # record streams must be equal, not just their aggregates.
        assert us.metrics.outcomes == up.metrics.outcomes, ctx
        for q in (0, 50, 95, 100):
            _identical_scalar(
                us.metrics.latency_percentile(q),
                up.metrics.latency_percentile(q),
                f"{ctx} p{q}",
            )
    _identical_scalar(
        serial.overall_hit_rate(), parallel.overall_hit_rate(), "overall"
    )
    _identical_mapping(
        serial.hit_rate_by_class(), parallel.hit_rate_by_class(), "by_class"
    )
    for lo, hi in (
        (MONTH_SECONDS, MONTH_SECONDS + WEEK_S),
        (MONTH_SECONDS, MONTH_SECONDS + 2 * WEEK_S),
    ):
        _identical_mapping(
            serial.hit_rate_by_class_windowed(lo, hi),
            parallel.hit_rate_by_class_windowed(lo, hi),
            f"window[{lo},{hi})",
        )
    _identical_mapping(
        serial.navigational_breakdown(),
        parallel.navigational_breakdown(),
        "navigational",
    )


@pytest.fixture(scope="module")
def serial_replay(request):
    small_log = request.getfixturevalue("small_log")
    return run_replay(
        small_log,
        ReplayConfig(users_per_class=USERS_PER_CLASS),
        modes=CacheMode.ALL,
    )


@pytest.fixture(scope="module")
def serial_daily(request):
    small_log = request.getfixturevalue("small_log")
    return run_replay(
        small_log,
        ReplayConfig(users_per_class=USERS_PER_CLASS, daily_updates=True),
        modes=CacheMode.ALL,
    )


class TestParallelEqualsSerial:
    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("mode", CacheMode.ALL)
    def test_plain_replay(self, small_log, serial_replay, mode, workers):
        parallel = run_replay(
            small_log,
            ReplayConfig(users_per_class=USERS_PER_CLASS, workers=workers),
            modes=[mode],
        )
        assert_replay_identical(serial_replay[mode], parallel[mode])

    @pytest.mark.parametrize("mode", CacheMode.ALL)
    def test_daily_updates(self, small_log, serial_daily, mode):
        parallel = run_replay(
            small_log,
            ReplayConfig(
                users_per_class=USERS_PER_CLASS,
                daily_updates=True,
                workers=2,
            ),
            modes=[mode],
        )
        assert_replay_identical(serial_daily[mode], parallel[mode])

class TestSchedulingInvariance:
    def test_shard_size_never_changes_results(
        self, small_log, serial_replay, monkeypatch
    ):
        """One-user shards (max dispatch interleaving) == serial."""
        # Shards are sized in the parent, so the patch takes effect.
        monkeypatch.setattr(shard, "SHARDS_PER_WORKER", 1000)
        n_users = len(serial_replay[CacheMode.FULL].users)
        assert shard.resolve_shard_size(n_users, 2) == 1
        fine = run_replay(
            small_log,
            ReplayConfig(users_per_class=USERS_PER_CLASS, workers=2),
            modes=[CacheMode.FULL],
        )
        assert_replay_identical(
            serial_replay[CacheMode.FULL], fine[CacheMode.FULL]
        )

    def test_more_workers_than_users(self, small_log, serial_replay):
        parallel = run_replay(
            small_log,
            ReplayConfig(users_per_class=USERS_PER_CLASS, workers=32),
            modes=[CacheMode.FULL],
        )
        assert_replay_identical(
            serial_replay[CacheMode.FULL], parallel[CacheMode.FULL]
        )

    def test_user_order_is_class_then_uid(self, serial_replay):
        """The merged user list preserves (class, sorted uid) work order."""
        result = serial_replay[CacheMode.FULL]
        seen_classes = []
        for user in result.users:
            if user.user_class not in seen_classes:
                seen_classes.append(user.user_class)
        assert seen_classes == [c for c in UserClass if c in seen_classes]
        by_class = {}
        for user in result.users:
            by_class.setdefault(user.user_class, []).append(user.user_id)
        for uids in by_class.values():
            assert uids == sorted(uids)


class TestConfigValidation:
    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            ReplayConfig(workers=0)
