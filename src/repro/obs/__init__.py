"""Observability for the simulation stack: tracing, metrics, manifests.

Three zero-dependency layers, all default-off (or allocation-free) so the
replay hot paths pay nothing unless a caller opts in:

* :mod:`repro.obs.trace` — context-manager span tracer with a
  ring-buffered recorder and JSONL export.  The module-level tracer is a
  no-op singleton until :func:`repro.obs.trace.enable` installs a real
  recorder.
* :mod:`repro.obs.registry` — named counters, gauges, and
  bounded-memory streaming histograms (reservoir sampling), so the
  serve plane can report percentiles without retaining every request,
  plus the one nearest-rank percentile rule.
* :mod:`repro.obs.manifest` — machine-readable run manifests (seed,
  config, git SHA, wall time, peak RSS) for experiments and benchmarks.

The v2 telemetry plane (always-on for the serving stack) adds:

* :mod:`repro.obs.timeseries` — one fixed-width bucket ring: each
  completed request reduced once to a record and folded into one
  per-bucket aggregate of every serve series (counts, samples, joules,
  slow-request exemplars), deterministic under the virtual clock;
* :mod:`repro.obs.slo` — good-fraction SLO rules with multi-window
  burn-rate alerting and machine-readable verdicts;
* :mod:`repro.obs.exposition` — Prometheus text + JSON rendering and an
  in-process asyncio HTTP endpoint;
* :mod:`repro.obs.benchgate` — the ``repro bench-gate`` trajectory
  regression gate;
* :mod:`repro.obs.energy` — per-request energy breakdowns,
  shared-fetch radio splits, the attribution conservation ledger, and
  windowed energy telemetry.
"""

from repro.obs.energy import (
    ENERGY_COMPONENTS,
    EnergyBreakdown,
    EnergyLedger,
    EnergyWindows,
    split_shared_radio,
)
from repro.obs.manifest import RunManifest, collect_manifest
from repro.obs.registry import (
    Counter,
    Gauge,
    MetricsRegistry,
    StreamingHistogram,
    get_registry,
    nearest_rank,
)
from repro.obs.slo import SLOAlert, SLOMonitor, SLOPolicy, SLORule
from repro.obs.timeseries import BucketRing, RequestRecord, ServeBucket
from repro.obs.trace import (
    Segment,
    TraceContext,
    Tracer,
    disable,
    enable,
    get_tracer,
    set_tracer,
)

__all__ = [
    "BucketRing",
    "Counter",
    "ENERGY_COMPONENTS",
    "EnergyBreakdown",
    "EnergyLedger",
    "EnergyWindows",
    "Gauge",
    "MetricsRegistry",
    "RequestRecord",
    "RunManifest",
    "SLOAlert",
    "SLOMonitor",
    "SLOPolicy",
    "SLORule",
    "Segment",
    "ServeBucket",
    "StreamingHistogram",
    "TraceContext",
    "Tracer",
    "collect_manifest",
    "disable",
    "enable",
    "get_registry",
    "get_tracer",
    "nearest_rank",
    "set_tracer",
    "split_shared_radio",
]
