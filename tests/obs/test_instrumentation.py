"""End-to-end checks that the hot paths emit the expected spans."""

import pytest

from repro.obs.trace import disable, enable
from repro.pocketsearch.cache import PocketSearchCache
from repro.pocketsearch.database import ResultDatabase
from repro.pocketsearch.engine import PocketSearchEngine
from repro.pocketsearch.hashtable import QueryHashTable
from repro.radio.models import THREE_G
from repro.radio.states import RadioLink
from repro.storage.filesystem import FlashFilesystem
from repro.storage.flash import NandFlash


@pytest.fixture(autouse=True)
def _restore_global_tracer():
    yield
    disable()


def _engine():
    database = ResultDatabase(FlashFilesystem(NandFlash()))
    cache = PocketSearchCache(
        hashtable=QueryHashTable(results_per_entry=2), database=database
    )
    return PocketSearchEngine(cache)


class TestServeQuerySpans:
    def test_miss_emits_radio_fetch_and_states(self):
        engine = _engine()
        tracer = enable()
        result = engine.serve_query("some query", "http://r", record_bytes=400)
        assert not result.outcome.hit
        records = tracer.records()
        by_name = {r.name: r for r in records}
        serve = by_name["serve_query"]
        assert serve.attrs["hit"] is False
        assert serve.attrs["source"] == "3g"
        assert by_name["cache_lookup"].parent_id == serve.span_id
        assert by_name["radio_fetch"].parent_id == serve.span_id
        assert by_name["browser_render"].parent_id == serve.span_id
        assert by_name["record_click"].parent_id == serve.span_id
        states = [
            r.attrs["state"] for r in records if r.name == "radio_state"
        ]
        assert states == ["ramp", "active", "tail"]
        radio_energy = sum(
            r.attrs["energy_j"] for r in records if r.name == "radio_state"
        )
        assert radio_energy > 0

    def test_hit_emits_database_read(self):
        engine = _engine()
        engine.serve_query("repeat me", "http://r", record_bytes=400)
        tracer = enable()
        result = engine.serve_query("repeat me", "http://r", record_bytes=400)
        assert result.outcome.hit
        by_name = {r.name: r for r in tracer.records()}
        assert by_name["serve_query"].attrs["hit"] is True
        db = by_name["database_read"]
        assert db.parent_id == by_name["serve_query"].span_id
        assert db.attrs["model_latency_s"] > 0
        # Flash reads under the database fetch appear as device events.
        device_events = [
            r for r in tracer.records() if r.name == "device_access"
        ]
        assert any(e.attrs["device"] == "nand-flash" for e in device_events)

    def test_disabled_tracer_records_nothing(self):
        engine = _engine()
        disable()
        engine.serve_query("quiet", "http://r", record_bytes=400)
        tracer = enable()
        assert tracer.records() == []


class TestRadioLinkEvents:
    def test_timeline_emits_state_events(self):
        tracer = enable()
        link = RadioLink(THREE_G)
        link.request(0.0, 1024, 65536)
        link.drain(60.0)
        states = [
            r.attrs["state"]
            for r in tracer.records()
            if r.name == "radio_state"
        ]
        assert states[0] == "ramp"
        assert "active" in states and "tail" in states and "sleep" in states
        for r in tracer.records():
            if r.name == "radio_state":
                assert r.attrs["dwell_s"] > 0
                assert r.attrs["energy_j"] >= 0

