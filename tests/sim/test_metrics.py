"""Tests for the metrics collector."""

import math

import pytest

from repro.sim.metrics import MetricsCollector, QueryOutcome, ServiceSource


def outcome(hit=True, latency=0.4, energy=0.5, t=0.0, nav=None):
    return QueryOutcome(
        query="q",
        hit=hit,
        source=ServiceSource.CACHE if hit else ServiceSource.RADIO_3G,
        latency_s=latency,
        energy_j=energy,
        timestamp=t,
        navigational=nav,
    )


class TestBasics:
    def test_empty_hit_rate_zero(self):
        assert MetricsCollector().hit_rate == 0.0

    def test_hit_rate(self):
        m = MetricsCollector()
        m.record(outcome(hit=True))
        m.record(outcome(hit=True))
        m.record(outcome(hit=False))
        assert m.hit_rate == pytest.approx(2 / 3)

    def test_means(self):
        m = MetricsCollector()
        m.record(outcome(latency=0.2, energy=1.0))
        m.record(outcome(latency=0.4, energy=3.0))
        assert m.mean_latency_s == pytest.approx(0.3)
        assert m.mean_energy_j == pytest.approx(2.0)
        assert m.total_energy_j == pytest.approx(4.0)

    def test_empty_undefined_stats_are_nan(self):
        m = MetricsCollector()
        assert math.isnan(m.mean_latency_s)
        assert math.isnan(m.mean_energy_j)
        assert math.isnan(m.latency_percentile(50))
        assert m.hit_rate == 0.0
        assert m.total_energy_j == 0.0

    def test_source_is_local(self):
        assert ServiceSource.CACHE.is_local
        assert not ServiceSource.RADIO_3G.is_local


class TestPercentiles:
    def test_percentile(self):
        m = MetricsCollector()
        for latency in (0.1, 0.2, 0.3, 0.4, 0.5):
            m.record(outcome(latency=latency))
        assert m.latency_percentile(50) == pytest.approx(0.3)
        assert m.latency_percentile(100) == pytest.approx(0.5)

    def test_percentile_bounds(self):
        m = MetricsCollector()
        m.record(outcome())
        with pytest.raises(ValueError):
            m.latency_percentile(101)


class TestBreakdowns:
    def test_navigational_breakdown(self):
        m = MetricsCollector()
        m.record(outcome(hit=True, nav=True))
        m.record(outcome(hit=True, nav=True))
        m.record(outcome(hit=True, nav=False))
        m.record(outcome(hit=False, nav=True))  # miss: not counted
        split = m.hit_breakdown_navigational()
        assert split["navigational"] == pytest.approx(2 / 3)
        assert split["non_navigational"] == pytest.approx(1 / 3)

    def test_breakdown_ignores_unflagged(self):
        m = MetricsCollector()
        m.record(outcome(hit=True, nav=None))
        assert m.hit_breakdown_navigational() == {
            "navigational": 0.0,
            "non_navigational": 0.0,
        }

    def test_window(self):
        m = MetricsCollector()
        m.record(outcome(t=1.0, hit=True))
        m.record(outcome(t=5.0, hit=False))
        window = m.window(0.0, 2.0)
        assert window.count == 1
        assert window.hit_rate == 1.0

    def test_hit_rate_by_predicate(self):
        m = MetricsCollector()
        m.record(outcome(hit=True, nav=True))
        m.record(outcome(hit=False, nav=True))
        m.record(outcome(hit=True, nav=False))
        assert m.hit_rate_by(lambda o: o.navigational) == pytest.approx(0.5)

    def test_window_boundary_inclusivity(self):
        """[t_start, t_end): start included, end excluded."""
        m = MetricsCollector()
        m.record(outcome(t=1.0, hit=True))
        m.record(outcome(t=2.0, hit=False))
        m.record(outcome(t=3.0, hit=True))
        window = m.window(1.0, 3.0)
        assert window.count == 2
        assert [o.timestamp for o in window.outcomes] == [1.0, 2.0]
