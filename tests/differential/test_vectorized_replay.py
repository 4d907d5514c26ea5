"""Differential equivalence: per-event ≡ batch replay.

The batch engine (:mod:`repro.sim.vectorized`), which serves every
untraced replay, must be *bit-identical* to the scalar per-event path
that serves traced ones — same per-query outcomes, same aggregate
reports — across every cache mode, with and without daily updates.
The scalar reference runs under a recording tracer
(:func:`tests.differential.per_event.per_event_replay`), which is what
selects the per-event path.
"""

import pytest

from repro.logs.schema import UserClass
from repro.sim.replay import CacheMode, ReplayConfig, run_replay

from tests.differential.per_event import (
    assert_replay_identical,
    per_event_replay,
)

USERS_PER_CLASS = 3


def _run(small_log, mode, **kwargs):
    return run_replay(
        small_log,
        ReplayConfig(users_per_class=USERS_PER_CLASS, **kwargs),
        modes=[mode],
    )[mode]


def _scalar(small_log, **kwargs):
    with per_event_replay():
        return run_replay(
            small_log,
            ReplayConfig(users_per_class=USERS_PER_CLASS, **kwargs),
            modes=CacheMode.ALL,
        )


@pytest.fixture(scope="module")
def scalar_plain(request):
    return _scalar(request.getfixturevalue("small_log"))


@pytest.fixture(scope="module")
def scalar_daily(request):
    return _scalar(request.getfixturevalue("small_log"), daily_updates=True)


class TestVectorizedEqualsScalar:
    """per-event ≡ batch, full mode matrix."""

    @pytest.mark.parametrize("mode", CacheMode.ALL)
    def test_plain(self, small_log, scalar_plain, mode):
        vectorized = _run(small_log, mode)
        assert_replay_identical(scalar_plain[mode], vectorized)

    @pytest.mark.parametrize("mode", CacheMode.ALL)
    def test_daily_updates(self, small_log, scalar_daily, mode):
        vectorized = _run(small_log, mode, daily_updates=True)
        assert_replay_identical(scalar_daily[mode], vectorized)


class TestUserOrder:
    def test_user_order_is_class_then_uid(self, small_log):
        """The user list preserves (class, sorted uid) work order."""
        result = _run(small_log, CacheMode.FULL)
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
