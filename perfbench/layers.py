"""Wrappers around the public calls into each ``repro`` layer, and the
per-layer metrics derived from the spans they record.

``instrument`` must run before the workload builds its telemetry plane,
flight recorder or server: ``FlightRecorder.attach`` stores the bound
``on_tick`` and ``CloudletServer`` stores the bound ``EdgeTier.stats``,
so methods patched afterwards would never be called through the
wrapper.  Module-level functions are patched in the module that calls
them (``repro.serve.harness.build_cache_content``, not the defining
module), because the caller looks the name up in its own globals.
``generate_logs`` and ``run_replay`` are wrapped by ``workloads.Run``,
whose checks watch them in every run.
"""

from __future__ import annotations

import time
from typing import Any, Dict

from ledger import RESIDUAL_SPANS, Ledger, current_rss_mb

#: Calls timed when the cost of one wrapper call is measured.
COST_CALLS = 20000
#: The coroutines, counted but not timed.
COUNTED = ("edge.fetch", "batcher.fetch_shared")


def _device(self, request, *args, **kwargs):
    return request.device_id


def _responder(self, t, response, *args, **kwargs):
    return response.request.device_id


def instrument(ledger: Ledger) -> None:
    """Patch every layer boundary the workloads cross."""
    import repro.serve.harness as harness
    import repro.sim.replay as replay
    import repro.sim.vectorized as vectorized
    from repro.edge.tier import EdgeTier
    from repro.logs.columnar import ColumnarEventBatch
    from repro.obs.energy import EnergyWindows
    from repro.obs.flight import FlightRecorder
    from repro.serve.backends import SearchBackend
    from repro.serve.batcher import MissBatcher
    from repro.serve.server import CloudletServer
    from repro.serve.telemetry import ServeTelemetry
    from repro.sim.battery import FleetBatteries

    timed = ledger.timed
    counts = ledger.counts

    # repro.logs (generate_logs is wrapped by workloads.Run)
    ColumnarEventBatch.from_log = classmethod(
        timed("columnar.batch_build", ColumnarEventBatch.from_log.__func__)
    )
    # repro.pocketsearch.content
    harness.build_cache_content = timed(
        "content.build", harness.build_cache_content
    )
    replay.build_cache_content = timed(
        "content.build", replay.build_cache_content
    )
    # repro.serve.loadgen
    harness.build_workload = timed("loadgen.build", harness.build_workload)

    # repro.pocketsearch.cache provisioning, with the RSS it adds
    make_cache = timed("cache.provision", harness.make_cache)
    rss_growth = ledger.samples["cache.rss_mb"]

    def provision(*args, **kwargs):
        before = current_rss_mb()
        cache = make_cache(*args, **kwargs)
        rss_growth.append(current_rss_mb() - before)
        return cache

    harness.make_cache = provision

    # repro.pocketsearch.engine, through the serve backend that owns it
    def count_hit(result) -> None:
        counts["engine.hits"] += result.outcome.hit

    SearchBackend.serve = timed(
        "engine.serve", SearchBackend.serve, ident=_device,
        on_result=count_hit,
    )
    # repro.serve.server, telemetry and the repro.obs observers
    CloudletServer.submit = timed(
        "server.submit", CloudletServer.submit, ident=_device
    )
    ServeTelemetry.on_submit = timed(
        "telemetry.on_submit", ServeTelemetry.on_submit
    )
    ServeTelemetry.on_response = timed(
        "telemetry.on_response", ServeTelemetry.on_response, ident=_responder
    )
    FlightRecorder.on_response = timed(
        "flight.on_response", FlightRecorder.on_response, ident=_responder
    )
    FlightRecorder.on_tick = timed("flight.on_tick", FlightRecorder.on_tick)
    EnergyWindows.on_request = timed(
        "energy.on_request", EnergyWindows.on_request
    )
    FleetBatteries.drain = timed(
        "batteries.drain", FleetBatteries.drain,
        ident=lambda self, device_id, *args: device_id,
    )
    # repro.edge; coroutines interleave at every await, so count only
    EdgeTier.stats = timed("edge.stats", EdgeTier.stats)
    EdgeTier.fetch = ledger.counted("edge.fetch", EdgeTier.fetch)
    MissBatcher.fetch_shared = ledger.counted(
        "batcher.fetch_shared", MissBatcher.fetch_shared
    )
    # repro.serve.vclock
    harness.run_simulated = timed("loop.run", harness.run_simulated)

    # repro.sim.replay (the halves, run_replay, are wrapped by workloads.Run)
    replay.replay_one_user = timed(
        "replay.user", replay.replay_one_user,
        ident=lambda log, content, daily, config, mode, cls, uid, *a: uid,
    )
    # repro.sim.vectorized
    vectorized.ReplayUniverse.__init__ = timed(
        "vectorized.universe_build", vectorized.ReplayUniverse.__init__
    )


def per_layer(ledger: Ledger, run) -> Dict[str, Any]:
    """Every per-layer metric of one traced run (0 where a layer is not
    on the workload's path)."""
    table = ledger.layers()
    empty = {"count": 0, "total_s": 0.0, "self_s": 0.0, "p50_s": 0.0,
             "p99_s": 0.0}

    def row(name: str) -> Dict[str, float]:
        return table.get(name, empty)

    m: Dict[str, Any] = {}
    for layer in ("logs.generate", "columnar.batch_build", "content.build",
                  "loadgen.build", "cache.provision", "engine.serve",
                  "server.submit", "edge.stats", "telemetry.on_submit",
                  "telemetry.on_response", "flight.on_response",
                  "flight.on_tick", "energy.on_request", "batteries.drain",
                  "loop.run", "replay.static", "replay.daily",
                  "vectorized.universe_build"):
        m[layer + "_s"] = row(layer)["total_s"]
    m["logs.generate_calls"] = row("logs.generate")["count"]
    m["content.builds"] = row("content.build")["count"]
    m["cache.provisions"] = row("cache.provision")["count"]
    m["cache.provision_ms_p50"] = row("cache.provision")["p50_s"] * 1e3
    m["cache.provision_ms_p99"] = row("cache.provision")["p99_s"] * 1e3
    growth = ledger.samples["cache.rss_mb"]
    m["cache.rss_mb_per_device"] = sum(growth) / len(growth) if growth else 0.0
    m["engine.queries"] = row("engine.serve")["count"]
    m["engine.hits"] = ledger.counts["engine.hits"]
    m["engine.serve_us_p50"] = row("engine.serve")["p50_s"] * 1e6
    m["engine.serve_us_p99"] = row("engine.serve")["p99_s"] * 1e6
    m["server.submitted"] = row("server.submit")["count"]
    m["server.admitted"] = row("telemetry.on_submit")["count"]
    m["server.submit_us_p50"] = row("server.submit")["p50_s"] * 1e6
    m["server.submit_us_p99"] = row("server.submit")["p99_s"] * 1e6
    m["telemetry.on_response_us_p50"] = (
        row("telemetry.on_response")["p50_s"] * 1e6
    )
    m["telemetry.on_response_us_p99"] = (
        row("telemetry.on_response")["p99_s"] * 1e6
    )
    m["flight.ticks"] = row("flight.on_tick")["count"]
    m["batcher.fetch_shared_calls"] = ledger.counts["batcher.fetch_shared"]
    m["edge.fetches"] = ledger.counts["edge.fetch"]
    m["edge.stats_calls"] = row("edge.stats")["count"]
    m["loop.self_s"] = row("loop.run")["self_s"]
    m["vectorized.universe_builds"] = row("vectorized.universe_build")["count"]
    m.update(_report_metrics(run))

    user = row("replay.user")
    m["replay.users"] = user["count"]
    m["replay.user_ms_p50"] = user["p50_s"] * 1e3
    m["replay.user_ms_p99"] = user["p99_s"] * 1e3
    m["replay.events"] = 0 if run.serve else run.operations()
    refresh_days = 0 if run.serve else run.replay_windows()[1]
    m["vectorized.refresh_days"] = refresh_days
    m["vectorized.refresh_ms_per_day"] = (
        (ledger.self_under("replay.user", "replay.daily")
         - ledger.self_under("replay.user", "replay.static"))
        / refresh_days * 1e3
        if refresh_days else 0.0
    )

    root = row("rep")["total_s"]
    residual = sum(row(name)["self_s"] for name in RESIDUAL_SPANS)
    m["trace.coverage"] = 1.0 - residual / root
    added = wrapper_cost_s(ledger)
    m["trace.overhead_frac"] = added / (root - added)
    return m


def _noop(*args, **kwargs) -> None:
    return None


def _per_call_s(fn, *args) -> float:
    start = time.perf_counter()
    for _ in range(COST_CALLS):
        fn(*args)
    return (time.perf_counter() - start) / COST_CALLS


def wrapper_cost_s(ledger: Ledger) -> float:
    """Wall time the wrappers added to a traced run, estimated as the
    calls made through each kind of wrapper times that wrapper's cost
    per call, measured here on a no-op.  Run after the traced phases."""
    scratch = Ledger()
    root = scratch.open("root")
    bare = _per_call_s(_noop, None, None)
    span = _per_call_s(scratch.timed("x", _noop, ident=_noop), None, None)
    count = _per_call_s(scratch.counted("x", _noop), None, None)
    scratch.close(root)
    rss = _per_call_s(current_rss_mb)
    spans = len(ledger.spans) - sum(
        1 for name, *_ in ledger.spans if name in RESIDUAL_SPANS
    )
    provisions = len(ledger.samples["cache.rss_mb"])
    return (
        spans * (span - bare)
        + sum(ledger.counts[name] for name in COUNTED) * (count - bare)
        + provisions * 2 * rss
    )


def _report_metrics(run) -> Dict[str, Any]:
    """Per-layer figures the serve report and flight recorder count."""
    names = ("server.shed", "server.queue_wait_p99_s", "batcher.fetches",
             "batcher.piggybacked", "batcher.batch_efficiency",
             "edge.community_hit_rate", "edge.origin_fetches", "edge.sheds",
             "edge.hop_p99_s", "flight.records_seen")
    if not run.serve:
        return dict.fromkeys(names, 0)
    report, _ = run.output
    edge = report.edge or {}
    return {
        "server.shed": report.shed,
        "server.queue_wait_p99_s": report.queue_wait_p99_s,
        "batcher.fetches": report.fetches,
        "batcher.piggybacked": report.piggybacked,
        "batcher.batch_efficiency": report.batch_efficiency,
        "edge.community_hit_rate": edge.get("community_hit_rate", 0.0),
        "edge.origin_fetches": edge.get("origin_fetches", 0),
        "edge.sheds": edge.get("sheds", 0),
        "edge.hop_p99_s": (
            report.edge_hop_p99_s if report.edge is not None else 0.0
        ),
        "flight.records_seen": sum(run.flight_seen().values()),
    }
