"""Vectorized/scalar refresh-seam coverage.

The vectorized engine serves a user's stream in one pass and prices
every hit in one array evaluation after it.  At each daily-update
boundary it swaps in that day's per-day plan (the day's mined content,
merged once per universe, with its diff from the day before) and
refreshes only the user's copy-on-write overlay plus the day's churn, in
place of ``CacheUpdateServer.refresh_with_content`` on a whole cache.
These tests pin the seam itself:

* a mid-stream daily update's :class:`UpdatePatch` accounting — byte
  counts, pair/result add/remove counts, pruned queries, compaction
  costs — is identical to driving the real scalar server against a real
  cache;
* ``collect_patches`` decides only whether that accounting is
  computed: every state change of a refresh runs either way;
* a daily user's hits are priced once, whatever the number of days;
* degenerate batches (users with no events, single-event users) pass
  through the batch path without crashing and produce the scalar
  engine's outcomes.
"""

import numpy as np
import pytest

from repro.logs.schema import MONTH_SECONDS
from repro.pocketsearch.content import build_cache_content, result_record_bytes
from repro.pocketsearch.engine import PocketSearchEngine
from repro.pocketsearch.manager import CacheUpdateServer
from repro.sim.replay import (
    CacheMode,
    ReplayConfig,
    _daily_contents,
    make_cache,
    select_replay_users,
)
from repro.sim import vectorized
from repro.sim.vectorized import (
    DAY_SECONDS,
    EngineCostModel,
    replay_user_vectorized,
)

T_START = 1 * MONTH_SECONDS
T_END = T_START + MONTH_SECONDS


@pytest.fixture(scope="module")
def small_content(request):
    small_log = request.getfixturevalue("small_log")
    config = ReplayConfig()
    return build_cache_content(
        small_log.month(config.build_month), config.policy
    )


@pytest.fixture(scope="module")
def daily_contents(request):
    small_log = request.getfixturevalue("small_log")
    return _daily_contents(small_log, ReplayConfig(daily_updates=True))


@pytest.fixture(scope="module")
def replay_users(request):
    small_log = request.getfixturevalue("small_log")
    selected = select_replay_users(small_log, 1, 3)
    return [uid for uids in selected.values() for uid in uids]


def _scalar_patches(log, content, daily, uid, mode):
    """Drive the real scalar server/cache, collecting every UpdatePatch."""
    cache = make_cache(content, mode)
    engine = PocketSearchEngine(cache)
    server = CacheUpdateServer()
    stream = log.for_user(uid).window(T_START, T_END)
    patches = []
    outcomes = []
    day = 0
    for i in range(stream.n_events):
        t = float(stream.timestamps[i])
        event_day = min(int((t - T_START) // DAY_SECONDS), len(daily) - 1)
        while day <= event_day:
            patches.append(server.refresh_with_content(cache, daily[day]))
            day += 1
        qkey = int(stream.query_keys[i])
        rkey = int(stream.result_keys[i])
        result = engine.serve_query(
            query=stream.query_string(qkey),
            clicked_url=stream.result_url(rkey),
            record_bytes=result_record_bytes(stream, rkey),
            navigational=bool(stream.navigational[i]),
            timestamp=t,
        )
        outcomes.append(result.outcome)
    return patches, outcomes


class TestUpdatePatchParity:
    @pytest.mark.parametrize("mode", [CacheMode.FULL, CacheMode.COMMUNITY_ONLY])
    def test_mid_batch_refresh_has_identical_accounting(
        self, small_log, small_content, daily_contents, replay_users, mode
    ):
        """Every refresh the scalar server performs — including skipped-day
        catch-ups and database compactions — must appear in the vectorized
        run with field-identical UpdatePatch records."""
        checked_patches = 0
        for uid in replay_users:
            expected_patches, expected_outcomes = _scalar_patches(
                small_log, small_content, daily_contents, uid, mode
            )
            metrics, patches = replay_user_vectorized(
                small_log,
                small_content,
                daily_contents,
                mode,
                uid,
                T_START,
                T_END,
                collect_patches=True,
            )
            assert metrics.outcomes == expected_outcomes, uid
            assert len(patches) == len(expected_patches), uid
            for got, want in zip(patches, expected_patches):
                # Dataclass equality covers bytes up/down, pair and result
                # add/remove counts, pruned queries, per-file patch bytes,
                # and the CompactionResult (including float costs).
                assert got == want, uid
            checked_patches += len(patches)
        assert checked_patches > 0  # the seam was actually exercised

    def test_compaction_occurs_and_matches(
        self, small_log, small_content, daily_contents, replay_users
    ):
        """At least one refresh in the matrix must trigger compaction —
        otherwise the compaction mirror is dead code in this suite."""
        compactions = 0
        for uid in replay_users:
            _, patches = replay_user_vectorized(
                small_log, small_content, daily_contents,
                CacheMode.FULL, uid, T_START, T_END,
                collect_patches=True,
            )
            compactions += sum(1 for p in patches if p.compaction is not None)
        assert compactions > 0


def _replay_with_state(log, content, daily, mode, uid, t_start, t_end, collect):
    """One batch replay: ``(patches, (hit, latency, energy), state)``,
    where ``state`` is the user's cache state after the last event."""
    arrays, states = [], []
    replay_arrays = vectorized._replay_user_arrays
    user_state = vectorized._UserCacheState

    def recorded_arrays(*args, **kwargs):
        arrays.append(replay_arrays(*args, **kwargs))
        return arrays[-1]

    def recorded_state(*args, **kwargs):
        states.append(user_state(*args, **kwargs))
        return states[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vectorized, "_replay_user_arrays", recorded_arrays)
        patch.setattr(vectorized, "_UserCacheState", recorded_state)
        _, patches = replay_user_vectorized(
            log, content, daily, mode, uid, t_start, t_end,
            collect_patches=collect,
        )
    (replayed,) = arrays
    (state,) = states
    return patches, replayed, state


class TestStateIndependentOfPatches:
    """The refreshes change a user's cache the same way whether or not
    their UpdatePatches are collected: equal hit, latency and energy
    arrays, and equal final overlays, databases, file sizes and garbage.
    """

    @staticmethod
    def _assert_same(log, content, daily, mode, uid, t_start, t_end):
        """Replay ``uid`` both ways; returns ``(refreshes, compacting
        refreshes)``, so a test can show the compaction ran."""
        off_patches, off_arrays, off = _replay_with_state(
            log, content, daily, mode, uid, t_start, t_end, False
        )
        on_patches, on_arrays, on = _replay_with_state(
            log, content, daily, mode, uid, t_start, t_end, True
        )
        assert off_patches is None
        for got, want in zip(off_arrays, on_arrays):
            assert np.array_equal(got, want), uid
        assert off.base is on.base, uid
        assert off.slots == on.slots, uid
        assert off.db == on.db, uid
        assert off.file_sizes == on.file_sizes, uid
        assert off.file_entries == on.file_entries, uid
        assert off.garbage == on.garbage, uid
        return len(on_patches), sum(p.compaction is not None for p in on_patches)

    def test_digest_users(self):
        """Every (mode, user) of the seed-7 UpdatePatch digest."""
        from tests.pocketsearch.test_update_digest import MODES, digest_inputs

        log, content, daily, selected, t_start, t_end = digest_inputs(7)
        refreshes = compactions = 0
        for mode in MODES:
            for uids in selected.values():
                for uid in uids:
                    n, compacted = self._assert_same(
                        log, content, daily, mode, uid, t_start, t_end
                    )
                    refreshes += n
                    compactions += compacted
        assert refreshes > 0 and compactions > 0

    @pytest.mark.parametrize("mode", [CacheMode.FULL, CacheMode.COMMUNITY_ONLY])
    def test_small_log_daily_users(
        self, small_log, small_content, daily_contents, replay_users, mode
    ):
        compactions = 0
        for uid in replay_users:
            compactions += self._assert_same(
                small_log, small_content, daily_contents, mode, uid,
                T_START, T_END,
            )[1]
        if mode == CacheMode.FULL:
            assert compactions > 0


class TestOnePass:
    def test_daily_hits_priced_in_one_evaluation(
        self, small_log, small_content, daily_contents, replay_users,
        monkeypatch,
    ):
        """A daily user's replay prices its hits with at most two
        ``fetch_cost_arrays`` calls (first and second results), however
        many days its events and hits span."""
        def active_days(uid):
            stream = small_log.for_user(uid).window(T_START, T_END)
            return len(set((stream.timestamps - T_START) // DAY_SECONDS))

        uid = max(replay_users, key=active_days)
        assert active_days(uid) >= 5
        calls = []
        fetch_cost_arrays = EngineCostModel.fetch_cost_arrays

        def counted(self, entries, offsets, nbytes):
            calls.append(len(entries))
            return fetch_cost_arrays(self, entries, offsets, nbytes)

        monkeypatch.setattr(EngineCostModel, "fetch_cost_arrays", counted)
        metrics, _ = replay_user_vectorized(
            small_log, small_content, daily_contents, CacheMode.FULL,
            uid, T_START, T_END,
        )
        hit_days = {
            (outcome.timestamp - T_START) // DAY_SECONDS
            for outcome in metrics.outcomes
            if outcome.hit
        }
        assert len(hit_days) >= 2  # hits on several days, yet:
        assert len(calls) <= 2


class TestDegenerateBatches:
    def test_user_with_no_events(self, small_log, small_content):
        """An empty slice (user absent from the window) yields an empty
        collector, not a crash."""
        metrics, patches = replay_user_vectorized(
            small_log, small_content, None, CacheMode.FULL,
            10**9, T_START, T_END,
        )
        assert metrics.count == 0
        assert metrics.outcomes == []
        assert patches is None

    def test_single_event_user(self, small_log, small_content, replay_users):
        """A one-event window exercises the batch path's minimal case and
        still matches the scalar engine exactly."""
        uid = replay_users[0]
        stream = small_log.for_user(uid).window(T_START, T_END)
        t0 = float(stream.timestamps[0])
        t1 = float(stream.timestamps[1])
        metrics, _ = replay_user_vectorized(
            small_log, small_content, None, CacheMode.FULL, uid, t0, t1
        )
        assert metrics.count == 1

        cache = make_cache(small_content, CacheMode.FULL)
        engine = PocketSearchEngine(cache)
        qkey = int(stream.query_keys[0])
        rkey = int(stream.result_keys[0])
        expected = engine.serve_query(
            query=stream.query_string(qkey),
            clicked_url=stream.result_url(rkey),
            record_bytes=result_record_bytes(stream, rkey),
            navigational=bool(stream.navigational[0]),
            timestamp=t0,
        ).outcome
        assert metrics.outcomes == [expected]

    def test_daily_user_with_no_events_still_no_refresh(
        self, small_log, small_content, daily_contents
    ):
        """No events → the update server is never invoked (matching the
        scalar loop, which only refreshes ahead of events)."""
        metrics, patches = replay_user_vectorized(
            small_log, small_content, daily_contents, CacheMode.FULL,
            10**9, T_START, T_END,
            collect_patches=True,
        )
        assert metrics.count == 0
        assert patches == []
