"""Vectorized/scalar refresh-seam coverage.

The vectorized engine serves a user's stream in one pass and prices
every hit in one array evaluation after it.  At each daily-update
boundary it swaps in that day's per-day plan (the day's mined content,
merged once per universe, with its diff from the day before) and
refreshes only the user's copy-on-write overlay plus the day's churn, in
place of ``CacheUpdateServer.refresh_with_content`` on a whole cache.
These tests pin the seam itself:

* after every mid-stream daily update, and after the last event, the
  user's cache state — each query's slots in chain order, each stored
  result's file, offset and size, and the per-file sizes, entry counts
  and garbage — is identical to what :func:`repro.sim.replay.replay_user`
  leaves in a real cache, compactions included;
* the two boundary rules no mined content reaches: a pair scored exactly
  the retention score is kept, and garbage of exactly the compaction
  threshold does not compact;
* a daily user's hits are priced once, whatever the number of days;
* degenerate batches (users with no events, single-event users) pass
  through the batch path without crashing and produce the scalar
  engine's outcomes.
"""

from dataclasses import replace
from functools import lru_cache

import pytest

from repro.logs.schema import MONTH_SECONDS
from repro.pocketsearch.content import (
    CacheContent,
    CacheEntry,
    build_cache_content,
    result_record_bytes,
)
from repro.pocketsearch.engine import PocketSearchEngine
from repro.pocketsearch.hashtable import hash64
from repro.pocketsearch.manager import CacheUpdateServer
from repro.sim import replay, vectorized
from repro.sim.replay import (
    CacheMode,
    ReplayConfig,
    _daily_contents,
    make_cache,
    replay_user,
    select_replay_users,
)
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


# -- cache states -------------------------------------------------------------

_result_hash = lru_cache(maxsize=1 << 16)(hash64)


def _state(table, stored, file_sizes, file_entries, garbage):
    """A cache state from ``table`` (query -> (result hash, score,
    accessed) slots in chain order) and ``stored`` (result hash -> (file,
    offset, record bytes)).  Scores are written with ``float.hex``, so
    that equal states hold bit-identical floats."""
    return (
        {
            query: tuple(
                (result_hash, score.hex(), accessed)
                for result_hash, score, accessed in slots
            )
            for query, slots in table.items()
        },
        stored,
        list(file_sizes),
        list(file_entries),
        garbage,
    )


def cache_state(cache):
    """The state of a per-event :class:`PocketSearchCache`."""
    table, database = cache.hashtable, cache.database
    return _state(
        {query: table.slots_for(query) for query in table.queries()},
        {
            result_hash: (stored.file_index, stored.offset, stored.record_bytes)
            for result_hash, stored in database._index.items()
        },
        database._file_sizes,
        database._file_entries,
        database.garbage_bytes,
    )


def batch_state(state):
    """The state of a batch user's cache: the base plan under the
    overlay, and the shared database layout under the user's own."""
    log = state.universe.log
    slots = {**state.base.slots, **state.slots}
    stored = {**state.base_db, **state.db}
    return _state(
        {
            log.query_string(qid): [
                (_result_hash(log.result_url(rid)), score, accessed)
                for rid, score, accessed in query_slots
            ]
            for qid, query_slots in slots.items()
            if query_slots
        },
        {
            _result_hash(log.result_url(rid)): location
            for rid, location in stored.items()
        },
        state.file_sizes,
        state.file_entries,
        state.garbage,
    )


class RecordingServer(CacheUpdateServer):
    """The update server, keeping each refresh's :class:`UpdatePatch`
    and the cache's state after it."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.patches = []
        self.states = []

    def refresh_with_content(self, cache, content):
        patch = super().refresh_with_content(cache, content)
        self.patches.append(patch)
        self.states.append(cache_state(cache))
        return patch


def per_event_run(log, content, daily, mode, uid, t_start, t_end, **server):
    """Replay ``uid`` through :func:`replay_user` on a fresh cache, with
    a :class:`RecordingServer` built from ``server`` doing the nightly
    refreshes.

    Returns ``(outcomes, states, patches, cache)``: the outcomes, the
    cache's state after each refresh and after the last event, each
    refresh's patch, and the cache.
    """
    recorder = RecordingServer(**server)
    engine = PocketSearchEngine(make_cache(content, mode))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(replay, "CacheUpdateServer", lambda: recorder)
        metrics = replay_user(
            engine, log, uid, t_start, t_end, daily_contents=daily
        )
    states = recorder.states + [cache_state(engine.cache)]
    return metrics.outcomes, states, recorder.patches, engine.cache


def batch_run(log, content, daily, mode, uid, t_start, t_end):
    """Replay ``uid`` through the batch engine.

    Returns ``(outcomes, states)``, the states read after each refresh
    and after the last event, as :func:`per_event_run` reads them.
    """
    states, users = [], []
    refresh = vectorized._refresh_state
    user_state = vectorized._UserCacheState

    def recorded_refresh(state, day):
        refresh(state, day)
        states.append(batch_state(state))

    def recorded_user(*args, **kwargs):
        users.append(user_state(*args, **kwargs))
        return users[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vectorized, "_refresh_state", recorded_refresh)
        patch.setattr(vectorized, "_UserCacheState", recorded_user)
        metrics = replay_user_vectorized(
            log, content, daily, mode, uid, t_start, t_end
        )
    states.extend(batch_state(state) for state in users)
    return metrics.outcomes, states


def assert_same_replay(log, content, daily, mode, uid, **server):
    """Replay ``uid`` over the replay month both ways, with both engines
    taking the protocol constants in ``server``, and assert equal
    outcomes and states.  Returns the per-event states and patches."""
    with pytest.MonkeyPatch.context() as patch:
        for name, value in server.items():
            patch.setattr(vectorized._cost_model(), name, value)
        outcomes, states, patches, _cache = per_event_run(
            log, content, daily, mode, uid, T_START, T_END, **server
        )
        got = batch_run(log, content, daily, mode, uid, T_START, T_END)
    assert got == (outcomes, states), uid
    return states, patches


# -- parity ---------------------------------------------------------------------


class TestUpdatePatchParity:
    @pytest.mark.parametrize("mode", [CacheMode.FULL, CacheMode.COMMUNITY_ONLY])
    def test_mid_batch_refresh_leaves_identical_states(
        self, small_log, small_content, daily_contents, replay_users, mode
    ):
        """After every refresh the scalar server performs — including
        skipped-day catch-ups and database compactions — and after the
        last event, the vectorized user's cache holds the per-event
        cache's state, and the two outcome lists are equal."""
        refreshes = 0
        for uid in replay_users:
            refreshes += len(assert_same_replay(
                small_log, small_content, daily_contents, mode, uid
            )[1])
        assert refreshes > 0  # the seam was actually exercised

    def test_compaction_occurs_and_matches(
        self, small_log, small_content, daily_contents, replay_users
    ):
        """At least one refresh in the matrix must compact the per-event
        database, with the batch states matching throughout — otherwise
        the compaction mirror is dead code in this suite."""
        compactions = 0
        for uid in replay_users:
            _states, patches = assert_same_replay(
                small_log, small_content, daily_contents, CacheMode.FULL, uid
            )
            compactions += sum(p.compaction is not None for p in patches)
        assert compactions > 0


def _queries_sent_once(log, uids):
    """(user, event index) of each query a user sends once in the
    replay window, on a day before the user's last."""
    for uid in uids:
        stream = log.for_user(uid).window(T_START, T_END)
        days = (stream.timestamps - T_START) // DAY_SECONDS
        qkeys = stream.query_keys.tolist()
        for i, qkey in enumerate(qkeys):
            if qkeys.count(qkey) == 1 and days[i] < days[-1]:
                yield uid, i


class TestBoundaryRules:
    """Mined contents score no pair exactly at the retention score and
    leave no garbage exactly at the compaction threshold, so these two
    replays reach each boundary by construction."""

    def test_pair_scored_at_retention_score_is_kept(
        self, small_log, replay_users
    ):
        """A day's content scores the clicked pair 0.5 and the user
        clicks it once that day: at the next refresh it holds exactly the
        retention score of 1.5, and is retained."""
        uid, i = next(_queries_sent_once(small_log, replay_users))
        stream = small_log.for_user(uid).window(T_START, T_END)
        qkey, rkey = int(stream.query_keys[i]), int(stream.result_keys[i])
        day = int((stream.timestamps[i] - T_START) // DAY_SECONDS)
        entry = CacheEntry(
            query=small_log.query_string(qkey),
            url=small_log.result_url(rkey),
            volume=1,
            score=0.5,
            navigational=False,
            record_bytes=300,
        )
        content = CacheContent(entries=[entry], total_log_volume=1)
        states, _patches = assert_same_replay(
            small_log, content, [content] * (day + 2), CacheMode.FULL, uid,
            retention_min_score=1.5,
        )
        # The state after the refresh of day + 1 keeps the clicked pair.
        table = states[day + 1][0]
        assert table[small_log.query_string(qkey)] == (
            (hash64(small_log.result_url(rkey)), (1.5).hex(), True),
        )

    def test_garbage_at_compaction_threshold_does_not_compact(
        self, small_log, small_content, replay_users
    ):
        """Four 80-byte records take 400 bytes with their headers.  The
        next day drops one: its 100 bytes are garbage, and the files
        still count them, so the garbage is exactly a quarter of the
        logical bytes and the database is not compacted."""
        by_url = {}
        for entry in small_content.entries:
            by_url.setdefault(entry.url, replace(entry, record_bytes=80))
        entries = list(by_url.values())[:4]
        day0 = CacheContent(entries=entries, total_log_volume=4)
        day1 = CacheContent(entries=entries[1:], total_log_volume=3)
        uid = next(
            uid for uid in replay_users
            if small_log.for_user(uid).window(
                T_START + DAY_SECONDS, T_END
            ).n_events
        )
        states, patches = assert_same_replay(
            small_log, day0, [day0, day1], CacheMode.COMMUNITY_ONLY, uid,
        )
        _table, _stored, file_sizes, _file_entries, garbage = states[1]
        threshold = CacheUpdateServer().compaction_threshold
        assert garbage == 100 == threshold * sum(file_sizes)
        assert patches[1].compaction is None


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
        metrics = replay_user_vectorized(
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
        metrics = replay_user_vectorized(
            small_log, small_content, None, CacheMode.FULL,
            10**9, T_START, T_END,
        )
        assert metrics.count == 0
        assert metrics.outcomes == []

    def test_single_event_user(self, small_log, small_content, replay_users):
        """A one-event window exercises the batch path's minimal case and
        still matches the scalar engine exactly."""
        uid = replay_users[0]
        stream = small_log.for_user(uid).window(T_START, T_END)
        t0 = float(stream.timestamps[0])
        t1 = float(stream.timestamps[1])
        metrics = replay_user_vectorized(
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
        self, small_log, small_content, daily_contents, monkeypatch
    ):
        """No events → no refresh runs (matching the scalar loop, which
        only refreshes ahead of events)."""
        refreshes = []
        refresh = vectorized._refresh_state

        def counted(state, day):
            refreshes.append(day)
            refresh(state, day)

        monkeypatch.setattr(vectorized, "_refresh_state", counted)
        metrics = replay_user_vectorized(
            small_log, small_content, daily_contents, CacheMode.FULL,
            10**9, T_START, T_END,
        )
        assert metrics.count == 0
        assert refreshes == []
