"""Tests for the serving telemetry plane (repro.serve.telemetry)."""

import pytest

from repro.edge.tier import EdgeTopology
from repro.obs.slo import SLOPolicy, SLORule
from repro.obs.trace import TraceContext, Tracer, set_tracer, disable
from repro.serve import LoadGenConfig, ServeConfig, run_loadtest
from repro.serve.requests import Overloaded, ServeRequest, ServeResponse
from repro.serve.telemetry import ServeTelemetry
from repro.sim.metrics import QueryOutcome, ServiceSource


def _response(
    trace_id=1,
    enqueued_at=0.0,
    completed_at=1.0,
    hit=True,
    shared=False,
    device_id=1,
    key="q",
):
    """A synthetic completed response with a consistent trace."""
    outcome = QueryOutcome(
        query=key,
        hit=hit,
        source=ServiceSource.CACHE if hit else ServiceSource.RADIO_3G,
        latency_s=completed_at - enqueued_at,
        energy_j=0.0,
        timestamp=enqueued_at,
    )
    trace = TraceContext(trace_id, enqueued_at)
    trace.mark("queue_wait", enqueued_at)
    trace.mark("refresh_blocked", enqueued_at)
    if not hit:
        trace.mark("batch_wait", completed_at)
    trace.mark("service", completed_at)
    return ServeResponse(
        request=ServeRequest(device_id=device_id, key=key),
        outcome=outcome,
        enqueued_at=enqueued_at,
        started_at=enqueued_at,
        completed_at=completed_at,
        shared_fetch=shared,
        trace=trace,
    )


def _shed(t, device_id=1, reason="server-busy"):
    """A typed admission shed, as the server hands it to ``on_shed``."""
    return Overloaded(
        request=ServeRequest(device_id=device_id, key="q"),
        reason=reason,
        t=t,
    )


def _slow_policy():
    return SLOPolicy(
        rules=(SLORule("p99", "latency", objective=0.9, threshold_s=0.5),),
        long_window_s=10.0,
        short_window_s=2.0,
        burn_threshold=2.0,
    )


class TestRollingStats:
    def test_hit_and_shed_rates(self):
        telemetry = ServeTelemetry()
        for i in range(4):
            telemetry.on_submit(i * 0.1, inflight=1)
            telemetry.on_response(
                i * 0.1 + 0.05,
                _response(trace_id=i + 1, enqueued_at=i * 0.1,
                          completed_at=i * 0.1 + 0.05, hit=(i % 2 == 0)),
                inflight=0,
            )
        # The server's order: an admission shed never reaches on_submit.
        telemetry.on_shed(1.0, _shed(1.0))
        rolling = telemetry.rolling(2.0)
        assert rolling["requests"] == 5
        assert rolling["completed"] == 4
        assert rolling["hit_rate"] == pytest.approx(0.5)
        assert rolling["shed_rate"] == pytest.approx(0.2)
        assert rolling["inflight_hwm"] == 1

    def test_shed_after_admission_counts_its_request_once(self):
        telemetry = ServeTelemetry()
        telemetry.on_submit(0.5, inflight=1)
        telemetry.on_shed(
            0.6, _shed(0.6, reason="edge-queue-full"), admitted=True
        )
        rolling = telemetry.rolling(1.0)
        assert rolling["requests"] == 1
        assert rolling["shed_rate"] == 1.0
        assert telemetry.per_bucket(1.0)[0]["requests"] == 1

    def test_batch_efficiency_from_fetch_classification(self):
        telemetry = ServeTelemetry()
        # Leader miss: batch_wait > 0, not shared.
        telemetry.on_response(
            1.0, _response(hit=False, completed_at=1.0), inflight=0
        )
        # Rider miss: shared fetch.
        telemetry.on_response(
            1.1,
            _response(trace_id=2, hit=False, completed_at=1.1, shared=True),
            inflight=0,
        )
        rolling = telemetry.rolling(2.0)
        assert rolling["batch_efficiency"] == pytest.approx(0.5)

    def test_exemplars_carry_segment_timelines(self):
        telemetry = ServeTelemetry()
        telemetry.on_response(
            5.0, _response(completed_at=5.0, key="slow"), inflight=0
        )
        top = telemetry.exemplars(5.5)
        assert top[0]["key"] == "slow"
        assert top[0]["latency_s"] == pytest.approx(5.0)
        assert "breakdown" in top[0]
        assert top[0]["hit"] is True


class TestShedAccounting:
    def test_rolling_requests_match_report_under_sheds(self, small_log):
        """A real server shedding at admission and on the edge hop: the
        window counts every submitted request exactly once."""
        telemetry = ServeTelemetry()
        report, _ = run_loadtest(
            small_log,
            LoadGenConfig(duration_s=60.0, rate_multiplier=1000.0, seed=11),
            ServeConfig(queue_depth=1, max_inflight=3),
            telemetry=telemetry,
            edge_topology=EdgeTopology(n_nodes=2, node_max_inflight=1),
        )
        assert report.shed_reasons.get("server-busy")
        assert report.shed_reasons.get("edge-queue-full")
        t = telemetry.t_last
        assert t < telemetry.window_s  # the whole run is in the window
        rolling = telemetry.rolling(t)
        assert rolling["requests"] == report.requests
        assert rolling["completed"] == report.completed
        assert rolling["shed"] == report.shed
        assert rolling["shed_rate"] == pytest.approx(report.shed_rate)
        rows = telemetry.per_bucket(t)
        assert sum(row["requests"] for row in rows) == report.requests


class TestPerBucket:
    def test_rows_align_across_instruments(self):
        telemetry = ServeTelemetry()
        telemetry.on_submit(0.5, inflight=3)
        telemetry.on_response(
            0.6, _response(enqueued_at=0.5, completed_at=0.6), inflight=2
        )
        telemetry.on_shed(2.5, _shed(2.5))
        rows = telemetry.per_bucket(3.0)
        by_start = {row["t_start"]: row for row in rows}
        assert by_start[0.0]["completed"] == 1
        assert by_start[0.0]["hit_rate"] == 1.0
        assert by_start[0.0]["inflight_hwm"] == 3
        assert by_start[2.0]["shed"] == 1
        assert by_start[2.0]["hit_rate"] is None


class TestSLOIntegration:
    def test_alerts_fire_inline_and_emit_tracer_events(self):
        tracer = Tracer()
        set_tracer(tracer)
        try:
            telemetry = ServeTelemetry(slo_policy=_slow_policy())
            # Every request blows the 0.5s threshold across 4 buckets;
            # the bucket-roll tick evaluates and fires inline.
            for i in range(40):
                t = i * 0.1
                telemetry.on_response(
                    t,
                    _response(trace_id=i + 1, enqueued_at=t - 2.0,
                              completed_at=t, hit=False),
                    inflight=0,
                )
            telemetry.finalize()
            assert telemetry.slo.alerts
            events = [r for r in tracer.records() if r.name == "slo_alert"]
            assert len(events) == len(telemetry.slo.alerts)
            assert events[0].attrs["rule"] == "p99"
        finally:
            disable()

    def test_verdict_surfaces_in_snapshot_and_none_without_policy(self):
        telemetry = ServeTelemetry(slo_policy=_slow_policy())
        telemetry.on_response(0.5, _response(completed_at=0.5), inflight=0)
        snapshot = telemetry.snapshot()
        assert "slo" in snapshot
        assert telemetry.verdict()["verdict"] in ("pass", "fail")
        bare = ServeTelemetry()
        assert bare.verdict() is None
        assert "slo" not in bare.snapshot()


class TestTicks:
    def test_on_tick_fires_once_per_bucket_roll(self):
        telemetry = ServeTelemetry()
        ticks = []
        telemetry.on_tick.append(lambda t, tel: ticks.append(t))
        for t in (0.1, 0.5, 0.9, 1.1, 1.2, 3.5):
            telemetry.on_submit(t, inflight=1)
        # Rolls: bucket 0 -> 1 (tick at 1.0) and 1 -> 3 (tick at 3.0).
        assert ticks == [1.0, 3.0]

    def test_snapshot_defaults_to_latest_event_time(self):
        telemetry = ServeTelemetry()
        telemetry.on_submit(7.25, inflight=1)
        assert telemetry.snapshot()["t"] == 7.25
        assert telemetry.t_last == 7.25


def _energy_response(trace_id, t, hit, energy, timeline_j, device_id=1):
    import dataclasses

    response = _response(
        trace_id=trace_id,
        enqueued_at=t - 0.1,
        completed_at=t,
        hit=hit,
        device_id=device_id,
    )
    return dataclasses.replace(
        response, energy=energy, radio_timeline_j=timeline_j
    )


class TestEnergyTelemetry:
    def _hit(self):
        from repro.obs.energy import EnergyBreakdown

        return EnergyBreakdown(storage_j=0.3, base_j=0.2)

    def _miss(self):
        from repro.obs.energy import EnergyBreakdown

        return EnergyBreakdown(ramp_j=1.0, transfer_j=7.0, tail_j=2.0)

    def test_energy_and_battery_sections_in_snapshot(self):
        telemetry = ServeTelemetry(battery_capacity_j=100.0)
        hit, miss = self._hit(), self._miss()
        telemetry.on_response(
            1.0, _energy_response(1, 1.0, True, hit, 0.0, device_id=1),
            inflight=0,
        )
        telemetry.on_response(
            2.0,
            _energy_response(2, 2.0, False, miss, miss.radio_j, device_id=2),
            inflight=0,
        )
        snap = telemetry.snapshot()
        rolling = snap["energy"]["rolling"]
        assert rolling["hit_energy_j"] == pytest.approx(hit.total_j)
        assert rolling["miss_energy_j"] == pytest.approx(miss.total_j)
        assert rolling["hit_miss_energy_ratio"] == pytest.approx(
            miss.total_j / hit.total_j
        )
        assert rolling["conservation"]["requests"] == 2
        assert telemetry.energy.ledger.conserved()
        batteries = snap["batteries"]
        assert batteries["n_devices"] == 2
        assert batteries["drained_j"] == pytest.approx(
            hit.total_j + miss.total_j
        )
        assert batteries["min_level"] == pytest.approx(
            1.0 - miss.total_j / 100.0
        )

    def test_responses_without_energy_leave_plane_empty(self):
        telemetry = ServeTelemetry()
        telemetry.on_response(1.0, _response(), inflight=0)
        snap = telemetry.snapshot()
        assert snap["energy"]["rolling"]["conservation"]["requests"] == 0
        assert snap["batteries"]["n_devices"] == 0

    def test_prometheus_samples_labeled(self):
        telemetry = ServeTelemetry(battery_capacity_j=100.0)
        miss = self._miss()
        telemetry.on_response(
            1.0,
            _energy_response(1, 1.0, False, miss, miss.radio_j, device_id=7),
            inflight=0,
        )
        samples = telemetry.prometheus_samples()
        by_name = {}
        for name, labels, value in samples:
            by_name.setdefault(name, []).append((labels, value))
        assert by_name["serve.energy.source_joules"] == [
            ({"source": "3g"}, pytest.approx(miss.total_j))
        ]
        assert by_name["serve.energy.attributed_radio_j"][0][1] == (
            pytest.approx(miss.radio_j)
        )
        assert ({"device": "7"}, pytest.approx(0.9)) in by_name[
            "serve.battery.level"
        ]

    def test_energy_slo_rules_fed_from_responses(self):
        from repro.obs.slo import SLOPolicy, SLORule

        policy = SLOPolicy(
            rules=(
                SLORule("joules", "energy", objective=0.5, threshold_j=1.0),
            ),
            long_window_s=10.0,
            short_window_s=2.0,
        )
        telemetry = ServeTelemetry(slo_policy=policy)
        telemetry.on_response(
            1.0, _energy_response(1, 1.0, True, self._hit(), 0.0), inflight=0
        )
        miss = self._miss()
        telemetry.on_response(
            2.0, _energy_response(2, 2.0, False, miss, miss.radio_j),
            inflight=0,
        )
        rule = telemetry.verdict()["rules"]["joules"]
        assert rule["total"] == 2
        assert rule["bad"] == 1


class TestEdgeNodeExposition:
    def test_per_node_labeled_samples(self):
        from repro.edge.tier import EdgeTier, EdgeTopology
        from repro.obs.exposition import render_prometheus
        from repro.obs.registry import MetricsRegistry

        telemetry = ServeTelemetry()
        tier = EdgeTier(EdgeTopology(n_nodes=2, seed=7))
        telemetry.edge_stats_fn = tier.stats
        telemetry.on_response(1.0, _response(), inflight=0)

        by_name = {}
        for name, labels, value in telemetry.prometheus_samples():
            by_name.setdefault(name, []).append((labels, value))
        for field in ("hits", "misses", "inflight", "sheds", "slice_size"):
            rows = by_name["serve.edge.node_" + field]
            assert [labels for labels, _ in rows] == [
                {"node": "0"}, {"node": "1"},
            ], field

        text = render_prometheus(
            MetricsRegistry(),
            extra_samples=telemetry.prometheus_samples(),
        )
        assert '# TYPE repro_serve_edge_node_hits gauge' in text
        assert 'repro_serve_edge_node_hits{node="0"} 0' in text
        assert 'repro_serve_edge_node_hits{node="1"} 0' in text

    def test_no_edge_tier_no_node_samples(self):
        telemetry = ServeTelemetry()
        telemetry.on_response(1.0, _response(), inflight=0)
        names = {name for name, _, _ in telemetry.prometheus_samples()}
        assert not any(name.startswith("serve.edge.") for name in names)
