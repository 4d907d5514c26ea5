"""Three-way differential equivalence: serial ≡ parallel ≡ vectorized.

The batch engine (:mod:`repro.sim.vectorized`), which serves every
untraced replay, must be *bit-identical* to the scalar per-event path
that serves traced ones — same per-query outcomes, same aggregate
reports — across every cache mode, with and without daily updates,
serial and sharded.  The scalar reference runs under a recording tracer
(:func:`tests.differential.per_event.per_event_replay`), which is what
selects the per-event path.  Together with ``test_parallel_replay``
(serial ≡ parallel) this closes the full serial ≡ parallel ≡ vectorized
triangle: each vectorized variant here is compared against the scalar
serial reference directly.
"""

import pytest

from repro.sim.replay import CacheMode, ReplayConfig, run_replay

from tests.differential.per_event import per_event_replay
from tests.differential.test_parallel_replay import (
    USERS_PER_CLASS,
    assert_replay_identical,
)


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
    """serial scalar ≡ serial vectorized, full mode matrix."""

    @pytest.mark.parametrize("mode", CacheMode.ALL)
    def test_plain(self, small_log, scalar_plain, mode):
        vectorized = _run(small_log, mode)
        assert_replay_identical(scalar_plain[mode], vectorized)

    @pytest.mark.parametrize("mode", CacheMode.ALL)
    def test_daily_updates(self, small_log, scalar_daily, mode):
        vectorized = _run(small_log, mode, daily_updates=True)
        assert_replay_identical(scalar_daily[mode], vectorized)


class TestVectorizedParallel:
    """Vectorized composes with workers=N sharding (third triangle edge)."""

    @pytest.mark.parametrize("mode", CacheMode.ALL)
    def test_sharded_vectorized_equals_serial_scalar(
        self, small_log, scalar_plain, mode
    ):
        sharded = _run(small_log, mode, workers=2)
        assert_replay_identical(scalar_plain[mode], sharded)

    def test_sharded_vectorized_daily(self, small_log, scalar_daily):
        sharded = _run(
            small_log, CacheMode.FULL, workers=2, daily_updates=True
        )
        assert_replay_identical(scalar_daily[CacheMode.FULL], sharded)

