"""Tests for radio energy accounting helpers."""

import pytest

from repro.radio.energy import (
    average_power,
    isolated_request_energy,
    isolated_request_latency,
    segments_duration,
    segments_energy,
    timeline_by_state,
)
from repro.radio.models import THREE_G
from repro.radio.states import PowerSegment, RadioLink, RadioState

KB = 1024


class TestIsolatedCosts:
    def test_latency_matches_state_machine(self):
        link = RadioLink(THREE_G)
        result = link.request(0.0, KB, 60 * KB, 0.35)
        analytic = isolated_request_latency(THREE_G, KB, 60 * KB, 0.35)
        assert result.latency_s == pytest.approx(analytic)

    def test_energy_matches_timeline(self):
        link = RadioLink(THREE_G)
        link.request(0.0, KB, 60 * KB, 0.35)
        segments = link.drain(60.0)
        timeline = sum(
            s.energy_j for s in segments if s.state is not RadioState.SLEEP
        )
        analytic = isolated_request_energy(THREE_G, KB, 60 * KB, 0.35)
        assert analytic == pytest.approx(timeline, rel=0.01)

    def test_tail_exclusion(self):
        with_tail = isolated_request_energy(THREE_G, KB, KB)
        without = isolated_request_energy(THREE_G, KB, KB, include_tail=False)
        assert with_tail - without == pytest.approx(
            THREE_G.tail_s * THREE_G.tail_power_w
        )

    def test_negative_sizes_rejected(self):
        with pytest.raises(ValueError):
            isolated_request_energy(THREE_G, -1, 0)
        with pytest.raises(ValueError):
            isolated_request_latency(THREE_G, 0, -1)


class TestAggregation:
    def _segments(self):
        return [
            PowerSegment(0.0, 2.0, 0.5, RadioState.RAMP),
            PowerSegment(2.0, 3.0, 1.0, RadioState.ACTIVE),
        ]

    def test_energy_and_duration(self):
        segs = self._segments()
        assert segments_energy(segs) == pytest.approx(2.0 * 0.5 + 3.0)
        assert segments_duration(segs) == pytest.approx(5.0)

    def test_average_power(self):
        assert average_power(self._segments()) == pytest.approx(4.0 / 5.0)

    def test_average_power_empty_rejected(self):
        with pytest.raises(ValueError):
            average_power([])

    def test_timeline_by_state(self):
        summary = timeline_by_state(self._segments())
        assert summary[RadioState.RAMP]["duration_s"] == pytest.approx(2.0)
        assert summary[RadioState.ACTIVE]["energy_j"] == pytest.approx(3.0)
        assert summary[RadioState.SLEEP]["duration_s"] == 0.0
