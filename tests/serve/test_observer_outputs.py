"""Pinned observer outputs across commits.

One small virtual-clock load test reaches every observer path: an edge
tier tight enough to shed ``edge-queue-full``, admission sheds, an SLO
policy with latency, energy and shed rules, a bucket holding more than
256 values of every sample series (the per-bucket reservoir-replacement
path), and a forced flight dump.  Its outputs — the flight bundle's
``events.jsonl`` digest, the telemetry snapshot (at the end of the run
and once every series has aged out of the window), the ``repro top``
frame, the Prometheus text and the serve report's metrics — must match
``tests/fixtures/observer_outputs.json`` exactly.

Regenerate the fixture only when an output change is intended::

    PYTHONPATH=src python -m tests.serve.test_observer_outputs
"""

import hashlib
import json
import os
import tempfile

from repro.edge.tier import EdgeTopology
from repro.obs.energy import EnergyBreakdown
from repro.obs.exposition import render_prometheus
from repro.obs.flight import EVENTS_FILENAME, FlightRecorder
from repro.obs.registry import MetricsRegistry
from repro.obs.slo import SLOPolicy, SLORule
from repro.obs.trace import TraceContext
from repro.obs.triggers import TriggerConfig, TriggerEngine
from repro.serve import LoadGenConfig, ServeConfig, run_loadtest
from repro.serve.requests import Overloaded, ServeRequest, ServeResponse
from repro.serve.telemetry import ServeTelemetry
from repro.serve.top import render_top
from repro.sim.metrics import QueryOutcome, ServiceSource

FIXTURE = os.path.join(
    os.path.dirname(__file__), os.pardir, "fixtures", "observer_outputs.json"
)

#: Completions driven into one bucket after the run: more than the
#: 256-sample per-bucket reservoir, so replacement is exercised.
BURST = 300


def _policy():
    return SLOPolicy(
        rules=(
            SLORule("latency", "latency", objective=0.9, threshold_s=1.0),
            SLORule("joules", "energy", objective=0.5, threshold_j=5.0),
            SLORule("shed", "shed_rate", objective=0.8),
        ),
        long_window_s=10.0,
        short_window_s=2.0,
    )


def _burst_response(i, t):
    """A synthetic completion ``i`` of the burst, finishing at ``t``."""
    hit = i % 3 != 0
    sojourn = 0.05 + (i * 37 % 101) / 100.0
    enqueued = t - sojourn
    trace = TraceContext(100_000 + i, enqueued)
    trace.mark("queue_wait", enqueued + sojourn * 0.25)
    trace.mark("refresh_blocked", enqueued + sojourn * 0.25)
    if hit:
        trace.mark("service", t)
        energy = EnergyBreakdown(storage_j=0.2 + i * 1e-3, base_j=0.1)
        tier, edge_node = "device", None
    else:
        trace.mark("edge_hop", enqueued + sojourn * 0.5)
        trace.mark("batch_wait", enqueued + sojourn * 0.9)
        trace.mark("service", t)
        energy = EnergyBreakdown(
            ramp_j=1.0, transfer_j=5.0 + i * 1e-2, tail_j=2.0, base_j=0.1
        )
        tier, edge_node = ("edge", i % 2) if i % 2 else ("origin", None)
    trace.energy = energy
    return ServeResponse(
        request=ServeRequest(device_id=1000 + i % 7, key=f"burst-{i % 11}"),
        outcome=QueryOutcome(
            query=f"burst-{i % 11}",
            hit=hit,
            source=ServiceSource.CACHE if hit else ServiceSource.RADIO_3G,
            latency_s=sojourn,
            energy_j=energy.total_j,
            timestamp=enqueued,
        ),
        enqueued_at=enqueued,
        started_at=enqueued + sojourn * 0.25,
        completed_at=t,
        shared_fetch=not hit and i % 5 == 0,
        trace=trace,
        energy=energy,
        radio_timeline_j=0.0 if i % 5 == 0 else energy.radio_j,
        tier=tier,
        edge_node=edge_node,
    )


def observer_outputs(log, workdir):
    """Run the scenario in ``workdir``; every pinned output."""
    telemetry = ServeTelemetry(slo_policy=_policy(), battery_capacity_j=500.0)
    engine = TriggerEngine(TriggerConfig(
        slo_alert=False, shed_spike=None, bundle_dir="bundles",
    ))
    flight = FlightRecorder(
        config={"scenario": "observer-outputs"}, seed=5, triggers=engine
    ).attach(telemetry)
    registry = MetricsRegistry()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        report, _ = run_loadtest(
            log,
            LoadGenConfig(duration_s=120.0, rate_multiplier=1000.0, seed=5),
            ServeConfig(queue_depth=1, max_inflight=3),
            telemetry=telemetry,
            registry=registry,
            edge_topology=EdgeTopology(
                n_nodes=2, node_max_inflight=1, node_capacity=50
            ),
        )
        # The burst lands in one bucket after the run, in the server's
        # hook order: admission, then completion; admission sheds never
        # reach on_submit.
        t0 = float(int(telemetry.t_last)) + 2.0
        for i in range(BURST):
            t = t0 + i * 0.003
            telemetry.on_submit(t, inflight=1 + i % 4)
            telemetry.on_response(t, _burst_response(i, t), inflight=i % 4)
            if i % 50 == 0:
                telemetry.on_shed(t, Overloaded(
                    request=ServeRequest(device_id=2000 + i, key="shed"),
                    reason="server-busy",
                    t=t,
                    trace=TraceContext(200_000 + i, t),
                ))
        flight.finalize(force=True)
        (bundle,) = engine.dumped
        with open(os.path.join(bundle, EVENTS_FILENAME), "rb") as fh:
            events_sha256 = hashlib.sha256(fh.read()).hexdigest()
    finally:
        os.chdir(cwd)
    snapshot = telemetry.snapshot()
    # Long after the run every series has aged out of the window.
    aged_out = telemetry.snapshot(telemetry.t_last + 1000.0)
    return {
        "events_sha256": events_sha256,
        "snapshot": json.loads(json.dumps(snapshot)),
        "aged_out_snapshot": json.loads(json.dumps(aged_out)),
        "top": render_top(snapshot).split("\n"),
        "prometheus": render_prometheus(
            registry, extra_samples=telemetry.prometheus_samples()
        ).split("\n"),
        "report_metrics": json.loads(json.dumps(report.to_metrics())),
    }


def _dumps(doc):
    return json.dumps(doc, indent=1) + "\n"


def test_observer_outputs_match_fixture(small_log, tmp_path):
    with open(FIXTURE) as fh:
        expected = json.load(fh)
    got = observer_outputs(small_log, str(tmp_path))
    assert got["top"] == expected["top"]
    assert got["prometheus"] == expected["prometheus"]
    assert got["report_metrics"] == expected["report_metrics"]
    # Text comparison: key order and int-vs-float are part of the output.
    assert _dumps(got["snapshot"]) == _dumps(expected["snapshot"])
    assert _dumps(got["aged_out_snapshot"]) == _dumps(
        expected["aged_out_snapshot"]
    )
    assert got["events_sha256"] == expected["events_sha256"]


def _small_log():
    from repro.logs.generator import generate_logs
    from repro.logs.popularity import CommunityModel
    from repro.logs.users import UserPopulation
    from repro.logs.vocabulary import Vocabulary

    from tests.conftest import SMALL_LOG_CONFIG, SMALL_POPULATION, SMALL_VOCAB

    return generate_logs(
        community=CommunityModel(Vocabulary.build(SMALL_VOCAB)),
        population=UserPopulation.build(SMALL_POPULATION),
        config=SMALL_LOG_CONFIG,
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        outputs = observer_outputs(_small_log(), workdir)
    with open(FIXTURE, "w") as fh:
        fh.write(_dumps(outputs))
    print(f"wrote {os.path.normpath(FIXTURE)}")
