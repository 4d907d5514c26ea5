"""Tests for the windowed time-series ring (repro.obs.timeseries).

Each class checks one windowed view the serve ring carries: event
counts, the in-flight gauge, sample series, slow-request exemplars, and
the shared bucket geometry.
"""

import math

import pytest

from repro.obs.timeseries import (
    BUCKET_RESERVOIR,
    BucketRing,
    ServeBucket,
    slowest,
    window_count,
    window_mean,
    window_quantile,
)
from repro.obs.trace import TraceContext
from repro.serve.requests import ServeRequest
from repro.serve.telemetry import ServeTelemetry


def _counts(width=1.0, n=5):
    return BucketRing(width, n, lambda: [0])


def _total(ring, t):
    return sum(slot[0] for _, slot in ring.live(t))


class _Record:
    """The fields ``ServeBucket.add`` reads from a request record."""

    def __init__(self, sojourn, ident=None):
        self.sojourn_s = sojourn
        self.segments = {
            "queue_wait": 0.0, "refresh_blocked": 0.0, "edge_hop": 0.0,
            "edge_serve": 0.0, "batch_wait": 0.0, "service": sojourn,
        }
        self.hit = True
        self.shared = False
        self.tier = "device"
        self.edge_node = None
        self.source = "cache"
        self.energy_j = None
        self.hop_err_s = 0.0
        self.hop_err_j = 0.0
        self.request = ServeRequest(device_id=1, key=str(ident))
        self.trace = TraceContext(1, 0.0)

    def exemplar(self):
        return {"id": self.request.key}


def _sojourns(width=1.0, n=10):
    ring = BucketRing(width, n, ServeBucket)

    def observe(t, value, ident=None):
        ring.at(t).add(_Record(value, ident))

    return ring, observe


def _series(ring, t):
    return [b.sojourn for _, b in ring.live(t)]


class TestWindowedCounter:
    def test_total_and_rate_within_window(self):
        ring = _counts()
        ring.at(0.2)[0] += 1
        ring.at(1.7)[0] += 2
        ring.at(3.0)[0] += 1
        assert _total(ring, 3.5) == 4
        assert _total(ring, 3.5) / ring.window_s == pytest.approx(4 / 5.0)

    def test_old_buckets_age_out(self):
        ring = _counts()
        ring.at(0.5)[0] += 10
        ring.at(4.5)[0] += 1
        assert _total(ring, 4.9) == 11
        # At t=5.9 the window is buckets 1..5: bucket 0 has aged out.
        assert _total(ring, 5.9) == 1

    def test_ring_slot_reuse_resets_stale_bucket(self):
        ring = _counts(n=3)
        ring.at(0.5)[0] += 7  # bucket 0
        ring.at(3.5)[0] += 1  # bucket 3 claims the same slot as bucket 0
        assert ring.live(4.0) == [(3, [1])]
        assert ring.get(0) is None
        assert ring.get(3) == [1]

    def test_window_count_reports_float_or_int_zero(self):
        assert window_count([0, 2, 0, 3]) == 5.0
        assert isinstance(window_count([0, 2]), float)
        assert window_count([0, 0]) == 0
        assert isinstance(window_count([]), int)

    def test_short_window_reads_newest_buckets(self):
        ring = _counts(n=10)
        for t in (0.5, 5.5, 8.5, 9.5):
            ring.at(t)[0] += 1
        assert [idx for idx, _ in ring.live(9.9, 2)] == [8, 9]
        assert len(ring.live(9.9)) == 4


class TestWindowedGauge:
    def test_last_and_high_watermark(self):
        telemetry = ServeTelemetry()
        telemetry.on_submit(0.5, inflight=3)
        telemetry.on_submit(0.9, inflight=1)
        telemetry.on_submit(2.5, inflight=2)
        assert telemetry.rolling(3.0)["inflight"] == 2
        assert telemetry.rolling(3.0)["inflight_hwm"] == 3
        # After bucket 0 ages out of the 120-bucket window, the
        # watermark drops.
        assert telemetry.rolling(120.5)["inflight_hwm"] == 2

    def test_empty_window_is_nan(self):
        telemetry = ServeTelemetry()
        rolling = telemetry.rolling(10.0)
        assert math.isnan(rolling["inflight"])
        assert math.isnan(rolling["inflight_hwm"])


class TestWindowedHistogram:
    def test_quantiles_exact_at_extremes(self):
        ring, observe = _sojourns()
        for i in range(100):
            observe(i * 0.05, float(i))
        series = _series(ring, 5.0)
        assert window_quantile(series, 0) == 0.0
        assert window_quantile(series, 100) == 99.0
        assert sum(s.count for s in series) == 100
        assert window_mean(series) == pytest.approx(49.5)

    def test_rolling_quantile_over_pooled_buckets(self):
        ring, observe = _sojourns(n=4)
        for _ in range(10):
            observe(0.5, 1.0)
            observe(1.5, 100.0)
        assert window_quantile(_series(ring, 2.0), 50) == 1.0
        # At t=4.2 the window is buckets 1..4: the cheap bucket 0 has
        # aged out and only the expensive bucket remains.
        assert window_quantile(_series(ring, 4.2), 50) == 100.0

    def test_empty_is_nan_and_bad_percentile_raises(self):
        ring, _ = _sojourns()
        assert math.isnan(window_quantile(_series(ring, 0.0), 99))
        assert math.isnan(window_mean(_series(ring, 0.0)))
        with pytest.raises(ValueError):
            window_quantile(_series(ring, 0.0), 101)

    def test_bucket_sample_bounded_and_deterministic(self):
        def fill():
            ring, observe = _sojourns()
            for i in range(3 * BUCKET_RESERVOIR):
                observe(0.5, float(i * 7919 % 1000))
            return ring.at(0.5).sojourn

        a, b = fill(), fill()
        assert a.count == 3 * BUCKET_RESERVOIR
        assert len(a.kept) == BUCKET_RESERVOIR
        assert a.kept == b.kept
        # Replacement happened: the sample is not just the first values.
        assert a.kept != [float(i * 7919 % 1000) for i in range(256)]
        assert (a.min, a.max) == (0.0, 999.0)


class TestExemplarRing:
    def test_keeps_top_k_per_bucket(self):
        ring, observe = _sojourns(n=4)
        for i in range(10):
            observe(0.5, float(i), ident=i)
        top = slowest((b for _, b in ring.live(0.9)), k=2)
        assert [e["id"] for e in top] == ["9", "8"]
        assert [e["latency_s"] for e in top] == [9.0, 8.0]

    def test_quiet_bucket_not_crowded_out(self):
        ring = BucketRing(1.0, 4, ServeBucket)
        for t, sojourn, ident in (
            (0.5, 100.0, "busy-1"), (0.6, 90.0, "busy-2"),
            (0.7, 80.0, "busy-3"), (0.8, 70.0, "busy-4"),
            (0.9, 60.0, "busy-5"), (0.95, 50.0, "busy-6"),
            (1.5, 0.001, "quiet"),
        ):
            ring.at(t).add(_Record(sojourn, ident))
        everything = slowest((b for _, b in ring.live(2.0)), k=10)
        assert {e["id"] for e in everything} == {
            "busy-1", "busy-2", "busy-3", "busy-4", "busy-5", "quiet",
        }


class TestTimeSeriesRegistry:
    def test_get_or_create_shares_geometry(self):
        telemetry = ServeTelemetry()
        telemetry.on_submit(0.5, inflight=1)
        snapshot = telemetry.snapshot()
        assert snapshot["bucket_width_s"] == 1.0
        assert snapshot["window_s"] == 120.0
        # One ring: every series' rows are keyed by the same buckets.
        starts = [row["t_start"] for row in snapshot["per_bucket"]]
        assert starts == [0.0]

    def test_geometry_validated(self):
        with pytest.raises(ValueError):
            BucketRing(0.0, 5, list)
        with pytest.raises(ValueError):
            BucketRing(1.0, 0, list)
