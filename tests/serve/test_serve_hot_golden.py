"""Pinned outputs and loop cost of the serve benchmark's hot shape.

One ``run_loadtest`` on the default log, wired the way ``repro
loadtest`` wires it: the twenty busiest devices at x10 for 30000 s
behind eight edge nodes, telemetry with a flight recorder and the
default trigger engine attached.  After the run a flight dump is
forced.  Pinned in ``tests/fixtures/serve_hot_golden.json``:

* the sha256 of the bundle's ``events.jsonl`` (every request, shed,
  bucket, edge and flush record the recorder still holds, byte for
  byte);
* the serve report's metrics.

Both are fixed by the seed: a change that reorders completions on the
virtual clock, or changes what an observer records, moves them.

The same run also bounds the event loop's cost: the number of
``VirtualTimeLoop`` turns (calls of its virtual selector) per submitted
request.

Regenerate the fixture only after an intended output change::

    PYTHONPATH=src python -m tests.serve.test_serve_hot_golden
"""

import hashlib
import json
import os
import tempfile

import pytest

from repro.edge.tier import EdgeTopology
from repro.experiments.common import default_log
from repro.obs.flight import EVENTS_FILENAME, FlightRecorder
from repro.obs.registry import MetricsRegistry
from repro.obs.triggers import TriggerConfig, TriggerEngine
from repro.serve import LoadGenConfig, ServeConfig, run_loadtest
from repro.serve.telemetry import ServeTelemetry
from repro.serve.vclock import VirtualTimeLoop

FIXTURE = os.path.join(
    os.path.dirname(__file__), os.pardir, "fixtures", "serve_hot_golden.json"
)

SHAPE = LoadGenConfig(
    duration_s=30000.0,
    rate_multiplier=10.0,
    seed=1,
    max_devices=20,
    n_regions=8,
)
EDGE_NODES = 8

#: Loop turns per submitted request this shape may take.  Each request
#: costs an arrival, a worker wake-up, and one timer plus one task step
#: per modelled sleep (a hit sleeps once; an edge miss sleeps on the hop,
#: on the edge service or the origin fetch, and on its local latency).
MAX_TURNS_PER_REQUEST = 5.5


def serve_hot_outputs(workdir):
    """Run the shape with bundles under ``workdir``; return the pinned
    outputs and the loop turns the run took."""
    telemetry = ServeTelemetry()
    engine = TriggerEngine(
        TriggerConfig(bundle_dir=os.path.join(workdir, "bundles"))
    )
    flight = FlightRecorder(
        config={"scenario": "serve-hot"}, seed=SHAPE.seed, triggers=engine
    ).attach(telemetry)
    turns = [0]
    select = VirtualTimeLoop._virtual_select

    def counting_select(self, timeout=None):
        turns[0] += 1
        return select(self, timeout)

    VirtualTimeLoop._virtual_select = counting_select
    try:
        report, workload = run_loadtest(
            default_log(),
            SHAPE,
            ServeConfig(),
            telemetry=telemetry,
            registry=MetricsRegistry(),
            edge_topology=EdgeTopology(n_nodes=EDGE_NODES),
        )
    finally:
        VirtualTimeLoop._virtual_select = select
    flight.finalize(force=True)
    (bundle,) = engine.dumped
    with open(os.path.join(bundle, EVENTS_FILENAME), "rb") as fh:
        events_sha256 = hashlib.sha256(fh.read()).hexdigest()
    outputs = {
        "n_requests": workload.n_requests,
        "events_sha256": events_sha256,
        "report_metrics": json.loads(json.dumps(report.to_metrics())),
    }
    return outputs, turns[0]


@pytest.fixture(scope="module")
def serve_hot_run():
    with tempfile.TemporaryDirectory() as workdir:
        return serve_hot_outputs(workdir)


def test_outputs_match_fixture(serve_hot_run):
    with open(FIXTURE) as fh:
        expected = json.load(fh)
    got, _ = serve_hot_run
    assert got["n_requests"] == expected["n_requests"]
    assert got["report_metrics"] == expected["report_metrics"]
    assert got["events_sha256"] == expected["events_sha256"]


def test_loop_turns_per_request(serve_hot_run):
    got, turns = serve_hot_run
    assert turns / got["n_requests"] <= MAX_TURNS_PER_REQUEST


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        outputs, turns = serve_hot_outputs(workdir)
    with open(FIXTURE, "w") as fh:
        json.dump(outputs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.normpath(FIXTURE)} ({turns} loop turns)")
