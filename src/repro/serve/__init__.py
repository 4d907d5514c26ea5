"""repro.serve: the online serving layer.

The paper's pocket cloudlet is an *online* system — a phone answering
live queries from its local cache and falling back to the radio on
misses.  This package turns the offline replay stack into that live
service:

* :mod:`repro.serve.server` — an asyncio request server with per-device
  sessions, bounded queues, admission control (typed ``Overloaded``
  sheds, never an unbounded queue), and a background cache-refresh
  scheduler;
* :mod:`repro.serve.batcher` — single-flight dedup of concurrent
  identical cache-miss fetches over the simulated radio;
* :mod:`repro.serve.backends` — the ``DeviceBackend`` protocol wrapping
  :class:`~repro.pocketsearch.engine.PocketSearchEngine` and the other
  cloudlets behind one serve interface;
* :mod:`repro.serve.vclock` — a deterministic simulated-time event loop,
  so the same server code runs in wall-clock or virtual time;
* :mod:`repro.serve.loadgen` — an open-loop load generator drawing
  sessions from :mod:`repro.logs` with Poisson/diurnal arrivals;
* :mod:`repro.serve.harness` — the replay-equivalence harness: a
  simulated-time serve over a log reproduces ``run_replay``'s hit/miss
  accounting bit-for-bit;
* :mod:`repro.serve.telemetry` — the always-on telemetry plane:
  windowed rolling stats, slow-request exemplars, and SLO burn-rate
  monitoring over every request's trace-segment breakdown;
* :mod:`repro.serve.top` — the ``repro top`` terminal dashboard over a
  live endpoint or a snapshot file.
"""

from repro.serve.backends import (
    BackendError,
    BackendResult,
    DailyUpdateBackend,
    DeviceBackend,
    SearchBackend,
    WebBackend,
)
from repro.serve.batcher import FetchShare, MissBatcher
from repro.serve.harness import (
    ServeReport,
    run_loadtest,
    run_workload,
    serve_replay,
)
from repro.serve.loadgen import LoadGenConfig, Workload, build_workload
from repro.serve.requests import (
    SEGMENT_NAMES,
    Overloaded,
    ServeRequest,
    ServeResponse,
)
from repro.serve.server import CloudletServer, ServeConfig
from repro.serve.telemetry import ServeTelemetry
from repro.serve.vclock import VirtualTimeLoop, run_simulated

__all__ = [
    "BackendError",
    "BackendResult",
    "CloudletServer",
    "DailyUpdateBackend",
    "DeviceBackend",
    "FetchShare",
    "LoadGenConfig",
    "MissBatcher",
    "Overloaded",
    "SEGMENT_NAMES",
    "SearchBackend",
    "ServeConfig",
    "ServeReport",
    "ServeRequest",
    "ServeResponse",
    "ServeTelemetry",
    "VirtualTimeLoop",
    "WebBackend",
    "Workload",
    "build_workload",
    "run_loadtest",
    "run_simulated",
    "run_workload",
    "serve_replay",
]
