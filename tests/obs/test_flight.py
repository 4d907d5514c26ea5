"""Flight recorder tests: bounded rings, bucket rows, trigger engine,
atomic bundles, byte-identical determinism, and a concurrency hammer
mirroring ``tests/obs/test_concurrency.py``."""

import json
import os
import threading

import pytest

from repro.obs.flight import (
    BUNDLE_VERSION,
    EVENTS_FILENAME,
    MANIFEST_FILENAME,
    FlightRecorder,
)
from repro.obs.timeseries import RequestRecord
from repro.obs.triggers import TriggerConfig, TriggerEngine
from repro.serve import LoadGenConfig, ServeConfig, run_loadtest
from repro.serve.requests import Overloaded, ServeRequest, ServeResponse
from repro.serve.telemetry import ServeTelemetry
from repro.sim.metrics import QueryOutcome, ServiceSource

N_THREADS = 8
N_OPS = 2_000


def make_response(t, device_id=1, key="q", hit=True, sojourn=0.25):
    outcome = QueryOutcome(
        query=key,
        hit=hit,
        source=ServiceSource.CACHE if hit else ServiceSource.RADIO_3G,
        latency_s=sojourn,
        energy_j=0.5,
        timestamp=t - sojourn,
    )
    return ServeResponse(
        request=ServeRequest(device_id=device_id, key=key),
        outcome=outcome,
        enqueued_at=t - sojourn,
        started_at=t - sojourn,
        completed_at=t,
    )


def make_record(t, **kwargs):
    return RequestRecord(make_response(t, **kwargs))


def make_shed(t, device_id=1, reason="server-busy"):
    return Overloaded(
        request=ServeRequest(device_id=device_id, key="q"),
        reason=reason,
        t=t,
    )


class FakeBadResponse:
    """Duck-typed response whose segments do not telescope to sojourn."""

    def __init__(self, t):
        self.request = ServeRequest(device_id=9, key="bad")
        self.outcome = QueryOutcome(
            query="bad", hit=False, source=ServiceSource.RADIO_3G,
            latency_s=1.0, energy_j=0.0, timestamp=t,
        )
        self.shared_fetch = False
        self.trace = None
        self.trace_id = None
        self.energy = None
        self.tier = "device"
        self.edge_node = None
        self.sojourn_s = 1.0

    def breakdown(self):
        return {"queue_wait": 0.0, "service": 0.25}  # re-sums to 0.25 != 1.0


class TestRingsBounded:
    def test_request_ring_evicts_oldest(self):
        flight = FlightRecorder(request_ring=8)
        for i in range(20):
            flight.on_response(float(i), make_record(float(i), device_id=i))
        status = flight.status()
        assert status["retained"]["request"] == 8
        assert status["seen"]["request"] == 20
        assert status["dropped"]["request"] == 12
        assert flight.dropped()["request"] == 12

    def test_shed_ring_bounded(self):
        flight = FlightRecorder(shed_ring=4)
        for i in range(10):
            flight.on_shed(float(i), make_shed(float(i)))
        assert flight.status()["retained"]["shed"] == 4
        assert flight.status()["seen"]["shed"] == 10

    def test_ring_capacity_validated(self):
        with pytest.raises(ValueError):
            FlightRecorder(request_ring=0)


class TestBucketRows:
    def test_tick_closes_bucket_with_counts_and_ledger(self):
        telemetry = ServeTelemetry()
        flight = FlightRecorder().attach(telemetry)
        assert telemetry.flight is flight
        # Bucket [0,1): two completions, one shed.
        telemetry.on_response(0.2, make_response(0.2, hit=True), inflight=1)
        telemetry.on_response(0.5, make_response(0.5, hit=False, sojourn=0.4),
                              inflight=1)
        telemetry.on_shed(0.8, make_shed(0.8, reason="device-queue-full"))
        # Crossing into bucket [1,2) closes the previous bucket first, so
        # this response lands in the fresh accumulator.
        telemetry.on_response(1.3, make_response(1.3), inflight=1)
        row = flight.last_bucket()
        assert row["kind"] == "bucket"
        assert row["t"] == 1.0
        assert row["completed"] == 2
        assert row["hits"] == 1
        assert row["shed"] == 1
        assert row["shed_reasons"] == {"device-queue-full": 1}
        assert row["shed_fraction"] == pytest.approx(1 / 3)
        assert row["sojourn_max_s"] == pytest.approx(0.4)
        assert "ledger" in row and row["ledger"]["requests"] == 0

    def test_accumulator_resets_between_buckets(self):
        telemetry = ServeTelemetry()
        flight = FlightRecorder().attach(telemetry)
        telemetry.on_response(0.2, make_response(0.2), inflight=1)
        telemetry.on_response(1.2, make_response(1.2), inflight=1)
        telemetry.on_response(2.2, make_response(2.2), inflight=1)
        rows = flight.records("bucket")
        assert [r["completed"] for r in rows] == [1, 1]
        assert rows[1]["t_prev"] == rows[0]["t"]


class TestTriggerEngine:
    def _flight(self, tmp_path, **cfg):
        defaults = dict(
            slo_alert=False, shed_spike=None, hop_resum_tol_s=None,
            hop_resum_tol_j=None, bundle_dir=str(tmp_path / "bundles"),
            incident_window_s=10.0, baseline_window_s=2.0,
        )
        defaults.update(cfg)
        engine = TriggerEngine(TriggerConfig(**defaults))
        telemetry = ServeTelemetry()
        flight = FlightRecorder(
            config={"scenario": "unit"}, seed=7, triggers=engine
        ).attach(telemetry)
        return flight, engine, telemetry

    def test_shed_spike_fires_and_dumps_after_baseline(self, tmp_path):
        flight, engine, telemetry = self._flight(
            tmp_path, shed_spike=0.5, shed_spike_min_events=4
        )
        for i in range(6):
            telemetry.on_shed(0.1 + i * 0.01, make_shed(0.1))
        assert engine.pending is None  # bucket not closed yet
        telemetry.on_response(1.1, make_response(1.1), inflight=1)
        assert engine.pending is not None
        assert engine.pending["trigger"] == "shed-spike"
        assert engine.pending["detail"]["events"] == 6
        # Baseline window (2s) elapses -> dump on the next tick.
        telemetry.on_response(2.5, make_response(2.5), inflight=1)
        assert engine.pending is not None
        telemetry.on_response(3.5, make_response(3.5), inflight=1)
        assert engine.pending is None
        assert len(engine.dumped) == 1
        assert engine.exhausted
        assert os.path.isdir(engine.dumped[0])

    def test_min_events_suppresses_sparse_spike(self, tmp_path):
        flight, engine, telemetry = self._flight(
            tmp_path, shed_spike=0.5, shed_spike_min_events=16
        )
        telemetry.on_shed(0.1, make_shed(0.1))
        telemetry.on_response(1.1, make_response(1.1), inflight=1)
        assert engine.pending is None

    def test_manual_trigger_at(self, tmp_path):
        flight, engine, telemetry = self._flight(tmp_path, trigger_at=5.0)
        telemetry.on_response(1.0, make_response(1.0), inflight=1)
        telemetry.on_response(2.1, make_response(2.1), inflight=1)
        assert engine.pending is None
        telemetry.on_response(5.4, make_response(5.4), inflight=1)
        assert engine.pending is not None
        assert engine.pending["trigger"] == "manual"

    def test_ledger_drift_trigger(self, tmp_path):
        flight, engine, telemetry = self._flight(tmp_path, ledger_drift_j=0.5)
        telemetry.energy.ledger.attributed_j = 2.0  # drift vs timeline 0
        telemetry.on_response(1.1, make_response(1.1), inflight=1)
        telemetry.on_response(2.2, make_response(2.2), inflight=1)
        assert engine.pending is not None
        assert engine.pending["trigger"] == "ledger-drift"

    def test_hop_resum_error_trigger(self, tmp_path):
        flight, engine, telemetry = self._flight(
            tmp_path, hop_resum_tol_s=1e-6
        )
        flight.on_response(0.5, RequestRecord(FakeBadResponse(0.5)))
        assert engine.pending is not None
        assert engine.pending["trigger"] == "hop-resum-error"

    def test_first_trigger_wins_and_max_bundles(self, tmp_path):
        flight, engine, telemetry = self._flight(
            tmp_path, trigger_at=1.0, ledger_drift_j=0.5
        )
        telemetry.on_response(1.5, make_response(1.5), inflight=1)
        telemetry.on_response(2.5, make_response(2.5), inflight=1)
        first = engine.pending
        assert first is not None and first["trigger"] == "manual"
        # A ledger drift while a trigger is pending does not re-arm.
        telemetry.energy.ledger.attributed_j = 99.0
        telemetry.on_response(3.5, make_response(3.5), inflight=1)
        assert engine.pending is first
        flight.finalize(force=True)
        assert len(engine.dumped) == 1
        # Exhausted: no further triggers arm.
        flight.on_shed(10.0, make_shed(10.0))
        telemetry.on_response(11.5, make_response(11.5), inflight=1)
        assert engine.pending is None

    def test_finalize_force_dumps_without_trigger(self, tmp_path):
        flight, engine, telemetry = self._flight(tmp_path)
        telemetry.on_response(0.5, make_response(0.5), inflight=1)
        flight.finalize(force=True)
        assert len(engine.dumped) == 1
        manifest = json.load(
            open(os.path.join(engine.dumped[0], MANIFEST_FILENAME))
        )
        assert manifest["trigger"]["detail"] == {"forced": True}

    def test_finalize_without_force_or_trigger_dumps_nothing(self, tmp_path):
        flight, engine, telemetry = self._flight(tmp_path)
        telemetry.on_response(0.5, make_response(0.5), inflight=1)
        flight.finalize()
        assert engine.dumped == []


class TestBundleDump:
    def test_bundle_layout_and_ordering(self, tmp_path):
        engine = TriggerEngine(TriggerConfig(
            slo_alert=False, shed_spike=None, hop_resum_tol_s=None,
            hop_resum_tol_j=None, trigger_at=2.0,
            baseline_window_s=1.0, bundle_dir=str(tmp_path),
        ))
        telemetry = ServeTelemetry()
        flight = FlightRecorder(
            config={"scenario": "layout"}, seed=3, triggers=engine
        ).attach(telemetry)
        for i in range(5):
            telemetry.on_response(
                0.3 + i, make_response(0.3 + i, device_id=i), inflight=1
            )
            telemetry.on_shed(0.6 + i, make_shed(0.6 + i))
        flight.finalize()
        (path,) = engine.dumped
        assert os.path.basename(path) == "flight-manual-t2000"
        lines = [
            json.loads(line)
            for line in open(os.path.join(path, EVENTS_FILENAME))
        ]
        meta, records = lines[0], lines[1:]
        assert meta["kind"] == "meta"
        assert meta["bundle_version"] == BUNDLE_VERSION
        assert meta["n_records"] == len(records)
        ts = [r["t"] for r in records]
        assert ts == sorted(ts)
        kinds = {r["kind"] for r in records}
        assert {"request", "shed", "bucket", "trigger"} <= kinds
        manifest = json.load(open(os.path.join(path, MANIFEST_FILENAME)))
        assert manifest["name"] == "flight_bundle"
        assert manifest["seed"] == 3
        assert manifest["config"] == {"scenario": "layout"}
        assert manifest["trigger"]["trigger"] == "manual"
        assert set(manifest["windows"]) == {"incident", "baseline"}
        assert manifest["git_sha"]
        assert "started_at" in manifest
        # No stray tmp directory left behind.
        assert not any(n.endswith(".tmp") for n in os.listdir(tmp_path))

    def test_duplicate_bundle_names_get_suffix(self, tmp_path):
        flight = FlightRecorder()
        trigger = {"kind": "trigger", "t": 1.0, "trigger": "manual"}
        windows = {"incident": [0.0, 1.0], "baseline": [1.0, 1.0]}
        p1 = flight.dump_bundle(str(tmp_path), dict(trigger), windows)
        p2 = flight.dump_bundle(str(tmp_path), dict(trigger), windows)
        assert p1 != p2
        assert os.path.basename(p2) == "flight-manual-t1000-2"


class TestDeterminism:
    def _run(self, small_log, bundle_dir):
        engine = TriggerEngine(TriggerConfig(
            slo_alert=False, shed_spike=None, hop_resum_tol_s=None,
            hop_resum_tol_j=None, bundle_dir=bundle_dir,
            incident_window_s=60.0, baseline_window_s=10.0,
        ))
        telemetry = ServeTelemetry()
        flight = FlightRecorder(
            config={"scenario": "determinism"}, seed=7, triggers=engine
        ).attach(telemetry)
        run_loadtest(
            small_log,
            LoadGenConfig(duration_s=300.0, rate_multiplier=50.0, seed=7),
            ServeConfig(queue_depth=8, max_inflight=8),
            telemetry=telemetry,
        )
        flight.finalize(force=True)
        (path,) = engine.dumped
        return path

    def test_same_seed_produces_byte_identical_bundle(self, small_log, tmp_path):
        path_a = self._run(small_log, str(tmp_path / "a"))
        path_b = self._run(small_log, str(tmp_path / "b"))
        events_a = open(os.path.join(path_a, EVENTS_FILENAME), "rb").read()
        events_b = open(os.path.join(path_b, EVENTS_FILENAME), "rb").read()
        assert events_a == events_b
        assert len(events_a) > 100  # the run actually recorded something
        manifest_a = json.load(open(os.path.join(path_a, MANIFEST_FILENAME)))
        manifest_b = json.load(open(os.path.join(path_b, MANIFEST_FILENAME)))
        # started_at is wall-clock provenance, everything else is stable.
        manifest_a.pop("started_at")
        manifest_b.pop("started_at")
        assert manifest_a == manifest_b


class TestFlightConcurrencyHammer:
    def test_hooks_hammered_from_threads(self):
        flight = FlightRecorder(request_ring=1024, shed_ring=1024)

        def work(k):
            for i in range(N_OPS):
                t = k + i * 1e-6
                if i % 3 == 0:
                    flight.on_shed(t, make_shed(t, device_id=k))
                else:
                    flight.on_response(t, make_record(t, device_id=k))

        threads = [
            threading.Thread(target=work, args=(k,)) for k in range(N_THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        status = flight.status()
        sheds = N_THREADS * len([i for i in range(N_OPS) if i % 3 == 0])
        responses = N_THREADS * N_OPS - sheds
        assert status["seen"]["request"] == responses
        assert status["seen"]["shed"] == sheds
        assert status["retained"]["request"] == 1024
        assert status["retained"]["shed"] == 1024
        # Sequence numbers are unique across all retained records.
        seqs = [r["seq"] for r in flight.records()]
        assert len(seqs) == len(set(seqs))

    def test_dump_while_recording(self, tmp_path):
        flight = FlightRecorder(request_ring=256)
        stop = threading.Event()

        def record():
            i = 0
            while not stop.is_set():
                flight.on_response(i * 1e-3, make_record(i * 1e-3))
                i += 1

        writer = threading.Thread(target=record)
        writer.start()
        try:
            for n in range(5):
                trigger = {"kind": "trigger", "t": float(n), "trigger": "manual"}
                path = flight.dump_bundle(
                    str(tmp_path), trigger,
                    {"incident": [0.0, float(n)], "baseline": [float(n), float(n)]},
                )
                lines = open(os.path.join(path, EVENTS_FILENAME)).read().splitlines()
                meta = json.loads(lines[0])
                assert meta["n_records"] == len(lines) - 1
        finally:
            stop.set()
            writer.join()
