"""Which path serves a replayed user.

``replay_one_user`` serves every user with the batch engine, except
while the tracer records: then the per-event ``replay_user`` does,
because only it opens the per-query spans ``repro trace`` and ``repro
profile`` report.  No option selects a path.
"""

from collections import Counter

import pytest

from repro.obs import trace
from repro.sim import replay
from repro.sim.replay import CacheMode, ReplayConfig, run_replay

CONFIG = ReplayConfig(users_per_class=2, daily_updates=True)


@pytest.fixture(autouse=True)
def _restore_tracer():
    yield
    trace.disable()


def _full(small_log, config):
    return run_replay(small_log, config, modes=[CacheMode.FULL])[
        CacheMode.FULL
    ]


def _refuse(*args, **kwargs):
    raise AssertionError("an untraced replay entered the per-event path")


class TestUntraced:
    def test_never_enters_the_per_event_path(self, small_log, monkeypatch):
        monkeypatch.setattr(replay, "replay_user", _refuse)
        result = _full(small_log, CONFIG)
        assert sum(user.metrics.count for user in result.users) > 0


class TestTraced:
    def test_serial_run_serves_each_user_event_by_event(
        self, small_log, monkeypatch
    ):
        calls = []
        per_event = replay.replay_user

        def counted(engine, log, user_id, *args, **kwargs):
            calls.append(user_id)
            return per_event(engine, log, user_id, *args, **kwargs)

        monkeypatch.setattr(replay, "replay_user", counted)
        tracer = trace.enable()
        result = _full(small_log, CONFIG)
        records = tracer.records()
        assert tracer.dropped == 0
        assert calls == [user.user_id for user in result.users]

        names = Counter(record.name for record in records)
        assert names["serve_query"] == sum(
            user.metrics.count for user in result.users
        )
        users = {r.span_id: r for r in records if r.name == "replay_user"}
        assert len(users) == len(result.users)
        assert all(r.attrs["daily_updates"] is True for r in users.values())
        refreshes = [r for r in records if r.name == "community_refresh"]
        assert refreshes
        assert all(r.parent_id in users for r in refreshes)
