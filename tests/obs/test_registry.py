"""Tests for counters, gauges, streaming histograms, and the
nearest-rank percentile rule."""

import math

import numpy as np
import pytest

from repro.obs.registry import (
    Counter,
    Gauge,
    MetricsRegistry,
    StreamingHistogram,
    nearest_rank,
)
from repro.sim.metrics import MetricsCollector, QueryOutcome, ServiceSource


class TestCounterGauge:
    def test_counter(self):
        c = Counter("queries")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge(self):
        g = Gauge("rss")
        g.set(3.5)
        g.set(2.0)
        assert g.value == 2.0


class TestStreamingHistogram:
    def test_empty(self):
        h = StreamingHistogram()
        assert math.isnan(h.mean)
        assert math.isnan(h.quantile(50))

    def test_bounds_validation(self):
        h = StreamingHistogram()
        h.add(1.0)
        with pytest.raises(ValueError):
            h.quantile(-1)
        with pytest.raises(ValueError):
            h.quantile(101)
        with pytest.raises(ValueError):
            StreamingHistogram(reservoir_size=0)

    def test_exact_below_reservoir_size(self):
        h = StreamingHistogram(reservoir_size=100)
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        h.extend(values)
        assert h.quantile(0) == 1.0
        assert h.quantile(100) == 5.0
        assert h.quantile(50) == 3.0
        assert h.mean == pytest.approx(3.0)

    def test_extremes_exact_beyond_reservoir(self):
        rng = np.random.default_rng(5)
        data = rng.normal(10.0, 3.0, 20_000)
        h = StreamingHistogram(reservoir_size=256)
        h.extend(data)
        assert h.quantile(0) == float(data.min())
        assert h.quantile(100) == float(data.max())
        assert h.count == 20_000

    def test_interior_quantiles_close_to_exact(self):
        rng = np.random.default_rng(11)
        data = rng.exponential(2.0, 30_000)
        h = StreamingHistogram(reservoir_size=2048)
        h.extend(data)
        for q in (10, 50, 90, 95):
            exact = float(np.percentile(data, q))
            spread = float(np.percentile(data, min(q + 5, 100))) - float(
                np.percentile(data, max(q - 5, 0))
            )
            assert abs(h.quantile(q) - exact) < max(spread, 0.05)

    def test_deterministic(self):
        a, b = StreamingHistogram(reservoir_size=32), StreamingHistogram(
            reservoir_size=32
        )
        values = [math.sin(i) for i in range(1000)]
        a.extend(values)
        b.extend(values)
        assert a.quantile(50) == b.quantile(50)


class TestNearestRank:
    def test_rank_is_ceiling_of_fraction(self):
        ordered = [float(i) for i in range(1, 101)]
        assert nearest_rank(ordered, 50) == 50.0
        assert nearest_rank(ordered, 99) == 99.0
        assert nearest_rank(ordered, 99.5) == 100.0

    def test_extremes_are_first_and_last(self):
        ordered = [1.0, 2.0, 3.0]
        assert nearest_rank(ordered, 0) == 1.0
        assert nearest_rank(ordered, 100) == 3.0
        assert nearest_rank([7.0], 50) == 7.0


def _outcome(latency):
    return QueryOutcome(
        query="q",
        hit=True,
        source=ServiceSource.CACHE,
        latency_s=latency,
        energy_j=0.1,
    )


class TestQuantileVsExactCollector:
    """Streaming quantiles vs the collector's exact latency_percentile."""

    def test_matches_exact_collector(self):
        rng = np.random.default_rng(17)
        latencies = rng.gamma(2.0, 0.2, 10_000)
        exact = MetricsCollector()
        bounded = StreamingHistogram(reservoir_size=4096)
        for latency in latencies:
            exact.record(_outcome(float(latency)))
            bounded.add(float(latency))
        # Edge percentiles are exact in both.
        assert bounded.quantile(0) == exact.latency_percentile(0)
        assert bounded.quantile(100) == exact.latency_percentile(100)
        for q in (25, 50, 75, 95, 99):
            assert bounded.quantile(q) == pytest.approx(
                exact.latency_percentile(q), rel=0.1
            )


class TestRegistry:
    def test_get_or_create(self):
        r = MetricsRegistry()
        assert r.counter("a") is r.counter("a")
        assert r.histogram("h") is r.histogram("h")
        assert r.names() == ["a", "h"]

    def test_type_conflict(self):
        r = MetricsRegistry()
        r.counter("x")
        with pytest.raises(TypeError):
            r.gauge("x")

    def test_snapshot(self):
        r = MetricsRegistry()
        r.counter("hits").inc(3)
        r.gauge("rss").set(1.5)
        r.histogram("lat").add(0.2)
        snap = r.snapshot()
        assert snap["hits"] == {"type": "counter", "value": 3}
        assert snap["rss"] == {"type": "gauge", "value": 1.5}
        assert snap["lat"]["count"] == 1
        r.clear()
        assert r.names() == []
