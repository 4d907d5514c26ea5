"""``repro serve`` / ``repro loadtest`` command implementations.

Both verbs run on the deterministic virtual clock, so a "10-minute"
load test finishes in however long the Python work takes, and two runs
with the same flags print the same numbers.

``repro serve`` replays the Section 6.2 experiment through the online
server and reports the serving-layer view (sojourn percentiles,
batching, sheds) next to the hit rates; ``--check-equivalence`` also
runs the offline replay and verifies the accounting matches.

``repro loadtest`` drives the server with an open-loop workload at a
chosen multiple of the log's natural rate and reports how admission
control held up.  ``--max-shed-rate`` turns the report into a pass/fail
gate for CI.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import Dict, List, Optional, Tuple

from repro.edge.tier import EdgeTopology
from repro.experiments.common import default_log, format_table
from repro.obs import trace as obs_trace
from repro.obs.exposition import TelemetryEndpoint
from repro.obs.flight import FlightRecorder
from repro.obs.manifest import ManifestRecorder
from repro.obs.registry import MetricsRegistry
from repro.obs.slo import SLOPolicy
from repro.obs.triggers import TriggerConfig, TriggerEngine
from repro.serve.harness import ServeReport, run_loadtest, serve_replay
from repro.serve.loadgen import LoadGenConfig
from repro.serve.server import ServeConfig
from repro.serve.telemetry import ServeTelemetry
from repro.sim.replay import CacheMode, ReplayConfig

__all__ = ["loadtest_main", "serve_main"]

#: Tolerance of the serve-vs-replay equivalence check (sums of model
#: latencies are float accumulations; identical orders give identical
#: sums, so this is belt-and-braces).
EQUIVALENCE_TOLERANCE = 1e-9


def _add_edge_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("edge tier")
    group.add_argument(
        "--edge-nodes", type=int, default=None, metavar="N",
        help="front the origin with N simulated cloudlet nodes "
        "(default: no edge tier)",
    )
    group.add_argument(
        "--edge-capacity", type=int, default=None, metavar="K",
        help="per-node community-slice capacity in records "
        "(default: unbounded)",
    )
    group.add_argument(
        "--edge-routing", choices=("key", "home"), default="key",
        help="route device misses by consistent-hash key ownership "
        "or by the device's home region (default key)",
    )
    group.add_argument(
        "--edge-regions", type=int, default=None, metavar="R",
        help="number of geographic regions for device placement "
        "(default: one per node)",
    )
    group.add_argument(
        "--placement-skew", type=float, default=0.0, metavar="S",
        help="Zipf-like skew of device-to-region placement "
        "(0.0 uniform, default)",
    )
    group.add_argument(
        "--edge-max-inflight", type=int, default=None, metavar="M",
        help="per-node in-flight bound; excess requests shed with "
        "reason edge-queue-full (default: unbounded)",
    )


def _add_flight_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("flight recorder")
    group.add_argument(
        "--no-flight", action="store_true",
        help="disable the always-on flight recorder",
    )
    group.add_argument(
        "--flight-bundle-dir", metavar="DIR", default="flight_bundles",
        help="where triggered postmortem bundles are written "
        "(default flight_bundles)",
    )
    group.add_argument(
        "--flight-ring", type=int, default=8192, metavar="N",
        help="request/shed ring capacity (default 8192)",
    )
    group.add_argument(
        "--flight-shed-spike", type=float, default=0.5, metavar="F",
        help="bucket shed fraction that triggers a bundle "
        "(<= 0 disables; default 0.5)",
    )
    group.add_argument(
        "--flight-trigger-at", type=float, default=None, metavar="T",
        help="manually trigger a bundle at this simulated time",
    )
    group.add_argument(
        "--flight-dump", action="store_true",
        help="force a bundle at end of run even if nothing triggered",
    )
    group.add_argument(
        "--flight-incident-window", type=float, default=60.0, metavar="S",
        help="pre-trigger analysis window seconds (default 60)",
    )
    group.add_argument(
        "--flight-baseline-window", type=float, default=30.0, metavar="S",
        help="trailing baseline window seconds captured after the "
        "trigger before dumping (default 30)",
    )
    group.add_argument(
        "--flight-max-bundles", type=int, default=1, metavar="N",
        help="bundles dumped per run (default 1)",
    )


def _build_flight(
    args: argparse.Namespace, config: Dict[str, object]
) -> Optional[FlightRecorder]:
    """The load test's flight recorder (None with ``--no-flight``)."""
    if args.no_flight:
        return None
    trigger_config = TriggerConfig(
        shed_spike=(
            args.flight_shed_spike if args.flight_shed_spike > 0 else None
        ),
        trigger_at=args.flight_trigger_at,
        incident_window_s=args.flight_incident_window,
        baseline_window_s=args.flight_baseline_window,
        bundle_dir=args.flight_bundle_dir,
        max_bundles=args.flight_max_bundles,
    )
    return FlightRecorder(
        config=config,
        seed=args.seed,
        triggers=TriggerEngine(trigger_config),
        request_ring=args.flight_ring,
        shed_ring=args.flight_ring,
    )


def _parse_burst(
    spec: Optional[str],
) -> Tuple[Optional[float], float, float]:
    """``START:DUR:MULT`` -> burst fields (all-None when unset)."""
    if spec is None:
        return None, 0.0, 1.0
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(
            f"--burst wants START:DURATION:MULTIPLIER, got {spec!r}"
        )
    start, duration, multiplier = (float(p) for p in parts)
    return start, duration, multiplier


def _edge_topology(args: argparse.Namespace) -> Optional[EdgeTopology]:
    if args.edge_nodes is None:
        return None
    return EdgeTopology(
        n_nodes=args.edge_nodes,
        node_capacity=args.edge_capacity,
        routing=args.edge_routing,
        n_regions=args.edge_regions,
        placement_skew=args.placement_skew,
        node_max_inflight=args.edge_max_inflight,
    )


def _edge_config(args: argparse.Namespace) -> Dict[str, object]:
    """Manifest-config view of the edge flags (None when disabled)."""
    if args.edge_nodes is None:
        return {"edge_nodes": None}
    return {
        "edge_nodes": args.edge_nodes,
        "edge_capacity": args.edge_capacity,
        "edge_routing": args.edge_routing,
        "edge_regions": args.edge_regions,
        "placement_skew": args.placement_skew,
        "edge_max_inflight": args.edge_max_inflight,
    }


def _report_rows(report: ServeReport) -> List[List[str]]:
    rows = [
        ["requests", str(report.requests)],
        ["completed", str(report.completed)],
        ["shed", f"{report.shed} ({report.shed_rate:.1%})"],
        ["hit rate", f"{report.hit_rate:.3f}"],
        ["throughput", f"{report.throughput_rps:.3f} req/s"],
        ["sojourn p50", f"{report.sojourn_p50_s:.3f} s"],
        ["sojourn p99", f"{report.sojourn_p99_s:.3f} s"],
        ["queue wait p99", f"{report.queue_wait_p99_s:.3f} s"],
        ["refresh-blocked p99", f"{report.refresh_blocked_p99_s:.3f} s"],
        ["batch wait p99", f"{report.batch_wait_p99_s:.3f} s"],
        ["service p99", f"{report.service_p99_s:.3f} s"],
        ["radio fetches", str(report.fetches)],
        ["piggybacked", str(report.piggybacked)],
        ["batch efficiency", f"{report.batch_efficiency:.3f}"],
    ]
    if report.energy_j_per_query == report.energy_j_per_query:  # not NaN
        rows += [
            ["energy/query", f"{report.energy_j_per_query:.3f} J "
             f"(p50 {report.energy_j_p50:.3f}, p99 {report.energy_j_p99:.3f})"],
            ["hit energy", f"{report.hit_energy_j:.3f} J"],
            ["miss energy", f"{report.miss_energy_j:.3f} J"],
            ["miss/hit energy", f"{report.hit_miss_energy_ratio:.1f}x"],
            ["radio attributed", f"{report.attributed_radio_j:.3f} J "
             f"(timeline {report.timeline_radio_j:.3f} J, "
             f"err {report.conservation_error_j:.2e})"],
        ]
    if report.edge is not None:
        edge = report.edge
        rows += [
            ["edge nodes", str(edge["n_nodes"])],
            ["community hit rate", f"{edge['community_hit_rate']:.3f} "
             f"({edge['community_hits']}/"
             f"{edge['community_hits'] + edge['community_misses']})"],
            ["edge hop p99", f"{report.edge_hop_p99_s:.3f} s"],
            ["edge sheds", str(edge["sheds"])],
            ["edge origin fetches", f"{edge['origin_fetches']} "
             f"(+{edge['origin_piggybacked']} piggybacked)"],
            ["edge propagation", f"{edge['origin']['flushes']} flushes, "
             f"{edge['origin']['bytes_uploaded']} B up, "
             f"{edge['origin']['bytes_downloaded']} B down"],
            ["hop re-sum err", f"{report.hop_resum_error_s:.2e} s / "
             f"{report.hop_resum_error_j:.2e} J"],
        ]
    if report.battery_day_fraction == report.battery_day_fraction:
        per_charge = (
            str(report.queries_per_charge)
            if report.queries_per_charge is not None
            else "-"
        )
        rows += [
            ["battery burn", f"{report.battery_day_fraction:.2%}/day "
             f"(min level {report.battery_min_level:.1%})"],
            ["queries/charge", per_charge],
        ]
    return rows


def _print_slo(report: ServeReport) -> None:
    slo = report.slo
    if slo is None:
        return
    print(f"SLO verdict: {slo['verdict'].upper()} "
          f"({slo['alerts_total']} burn-rate alerts)")
    rows = [
        [
            name,
            rule["kind"],
            f"{rule['objective']:.3f}",
            f"{rule['bad_fraction']:.4f}",
            str(rule["alerts"]),
            "pass" if rule["passed"] else "FAIL",
        ]
        for name, rule in sorted(slo["rules"].items())
    ]
    print(format_table(
        rows, ["rule", "kind", "objective", "bad frac", "alerts", "verdict"]
    ))
    for alert in slo["alerts"]:
        print(
            f"  alert t={alert['t']:.1f}s {alert['rule']} "
            f"burn long={alert['burn_long']:.1f} "
            f"short={alert['burn_short']:.1f}"
        )


async def _serve_endpoint(
    registry: MetricsRegistry,
    telemetry: ServeTelemetry,
    port: int,
    seconds: float,
) -> None:
    """Expose the finished run's telemetry over HTTP for ``seconds``."""
    endpoint = TelemetryEndpoint(
        registry,
        snapshot_fn=lambda: {"serve": telemetry.snapshot()},
        samples_fn=telemetry.prometheus_samples,
        port=port,
    )
    await endpoint.start()
    print(
        f"telemetry on http://127.0.0.1:{endpoint.port}/metrics "
        f"(and /metrics.json) for {seconds:.0f}s",
        flush=True,
    )
    await asyncio.sleep(seconds)
    await endpoint.close()


def _write_manifest(
    recorder: ManifestRecorder, report: ServeReport, path: Optional[str]
) -> None:
    for key, value in report.to_metrics().items():
        recorder.add_metric(key, value)
    if path:
        recorder.manifest.metrics.update(recorder.metrics)
        recorder.manifest.write(path)
        print(f"wrote run manifest to {path}")


# -- repro serve ------------------------------------------------------------


def serve_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Replay month-1 traffic through the online serving "
        "layer on the simulated clock.",
    )
    parser.add_argument(
        "--users", type=int, default=10,
        help="users per Table 6 class (default 10)",
    )
    parser.add_argument(
        "--mode", choices=CacheMode.ALL, default=CacheMode.FULL,
        help="cache mode (default full)",
    )
    parser.add_argument(
        "--daily-updates", action="store_true",
        help="apply the Section 6.2.2 nightly community refresh",
    )
    parser.add_argument("--seed", type=int, default=97, help="replay seed")
    parser.add_argument(
        "--check-equivalence", action="store_true",
        help="also run the offline replay and verify accounting matches",
    )
    parser.add_argument("--manifest-out", metavar="PATH", default=None)
    _add_edge_args(parser)
    args = parser.parse_args(argv)
    if args.users <= 0:
        print("repro serve: --users must be positive", file=sys.stderr)
        return 2
    try:
        edge_topology = _edge_topology(args)
    except ValueError as exc:
        print(f"repro serve: {exc}", file=sys.stderr)
        return 2

    log = default_log()
    config = ReplayConfig(
        users_per_class=args.users,
        seed=args.seed,
        daily_updates=args.daily_updates,
    )
    recorder = ManifestRecorder(
        "serve",
        config={
            "users": args.users,
            "mode": args.mode,
            "daily_updates": args.daily_updates,
            **_edge_config(args),
        },
        seed=args.seed,
    )
    with recorder:
        results, reports = serve_replay(
            log, config, modes=(args.mode,), edge_topology=edge_topology
        )
        report = reports[args.mode]
        result = results[args.mode]
        recorder.add_metric("overall_hit_rate", result.overall_hit_rate())

    print(f"=== serve: mode={args.mode} users/class={args.users} ===")
    print(format_table(_report_rows(report), ["metric", "value"]))
    print(f"overall hit rate: {result.overall_hit_rate():.3f}")

    exit_code = 0
    if args.check_equivalence:
        from repro.sim.replay import run_replay

        offline = run_replay(log, config, modes=(args.mode,))[args.mode]
        mismatches = _compare(offline, result)
        if report.shed:
            mismatches.append(f"serve shed {report.shed} requests")
        if mismatches:
            print("EQUIVALENCE FAILED:", file=sys.stderr)
            for line in mismatches:
                print("  " + line, file=sys.stderr)
            exit_code = 1
        else:
            print(
                f"equivalence check: serve matches offline replay for "
                f"{len(result.users)} users (tolerance {EQUIVALENCE_TOLERANCE})"
            )
        recorder.add_metric("equivalence_ok", not mismatches)
    _write_manifest(recorder, report, args.manifest_out)
    return exit_code


def _compare(offline, served) -> List[str]:
    """Per-user accounting diffs between offline and served replays."""
    mismatches: List[str] = []
    if len(offline.users) != len(served.users):
        return [
            f"user count {len(offline.users)} != {len(served.users)}"
        ]
    for a, b in zip(offline.users, served.users):
        if a.user_id != b.user_id:
            mismatches.append(f"user order diverged: {a.user_id} vs {b.user_id}")
            continue
        if a.metrics.count != b.metrics.count:
            mismatches.append(
                f"user {a.user_id}: count {a.metrics.count} != {b.metrics.count}"
            )
        if a.metrics.hits != b.metrics.hits:
            mismatches.append(
                f"user {a.user_id}: hits {a.metrics.hits} != {b.metrics.hits}"
            )
        for attr in ("total_latency_s", "total_energy_j"):
            diff = abs(getattr(a.metrics, attr) - getattr(b.metrics, attr))
            if diff > EQUIVALENCE_TOLERANCE:
                mismatches.append(
                    f"user {a.user_id}: {attr} differs by {diff:.3e}"
                )
    return mismatches


# -- repro loadtest ---------------------------------------------------------


def loadtest_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro loadtest",
        description="Open-loop load test of the serving layer on the "
        "simulated clock.",
    )
    parser.add_argument(
        "--duration", type=float, default=600.0,
        help="simulated seconds of traffic (default 600)",
    )
    parser.add_argument(
        "--rate", type=float, default=1.0,
        help="offered load as a multiple of the log's natural rate",
    )
    parser.add_argument(
        "--arrivals", choices=("poisson", "log"), default="poisson",
    )
    parser.add_argument(
        "--no-diurnal", action="store_true",
        help="flat Poisson rate instead of the hour-of-day profile",
    )
    parser.add_argument(
        "--max-devices", type=int, default=None,
        help="cap distinct devices (highest-volume first)",
    )
    parser.add_argument("--queue-depth", type=int, default=32)
    parser.add_argument("--max-inflight", type=int, default=4096)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--burst", metavar="START:DUR:MULT", default=None,
        help="inject an overload burst: at START simulated seconds, "
        "multiply the offered rate by MULT for DUR seconds "
        "(poisson arrivals only)",
    )
    parser.add_argument(
        "--max-shed-rate", type=float, default=None, metavar="F",
        help="exit nonzero if the shed fraction exceeds F (CI gate)",
    )
    parser.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="run under the span tracer and write trace JSONL here",
    )
    parser.add_argument(
        "--trace-sample-rate", type=float, default=1.0, metavar="F",
        help="keep this fraction of trace records (deterministic "
        "systematic sampling; sampled-out spans still count in the "
        "meta record's spans_dropped)",
    )
    parser.add_argument(
        "--trace-capacity", type=int, default=obs_trace.DEFAULT_CAPACITY,
        help="tracer ring-buffer size (default %(default)s)",
    )
    parser.add_argument(
        "--slo-policy", metavar="PATH", default=None,
        help="monitor the run against this SLO policy JSON",
    )
    parser.add_argument(
        "--battery-capacity-j", type=float, default=None, metavar="J",
        help="per-device battery size for drain tracking (default: the "
        "Xperia X1a battery, ~19980 J)",
    )
    parser.add_argument(
        "--fail-on-alert", action="store_true",
        help="exit nonzero if the SLO verdict is fail (CI gate)",
    )
    parser.add_argument(
        "--snapshot-out", metavar="PATH", default=None,
        help="write the final telemetry snapshot JSON (repro top --snapshot)",
    )
    parser.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="after the run, serve /metrics and /metrics.json on this "
        "port (0 picks a free one)",
    )
    parser.add_argument(
        "--metrics-serve-s", type=float, default=5.0, metavar="S",
        help="how long to keep the metrics endpoint up (default 5)",
    )
    parser.add_argument("--manifest-out", metavar="PATH", default=None)
    _add_edge_args(parser)
    _add_flight_args(parser)
    args = parser.parse_args(argv)

    try:
        edge_topology = _edge_topology(args)
        burst_start, burst_duration, burst_multiplier = _parse_burst(
            args.burst
        )
    except ValueError as exc:
        print(f"repro loadtest: {exc}", file=sys.stderr)
        return 2
    if not 0.0 < args.trace_sample_rate <= 1.0:
        print(
            "repro loadtest: --trace-sample-rate must be in (0, 1], "
            f"got {args.trace_sample_rate}",
            file=sys.stderr,
        )
        return 2
    if args.trace_capacity <= 0:
        print(
            "repro loadtest: --trace-capacity must be positive",
            file=sys.stderr,
        )
        return 2
    slo_policy = None
    if args.slo_policy is not None:
        try:
            slo_policy = SLOPolicy.from_json(args.slo_policy)
        except (OSError, ValueError, KeyError) as exc:
            print(f"repro loadtest: bad --slo-policy: {exc}", file=sys.stderr)
            return 2
    if args.battery_capacity_j is not None and args.battery_capacity_j <= 0:
        print(
            "repro loadtest: --battery-capacity-j must be positive",
            file=sys.stderr,
        )
        return 2
    telemetry_kwargs = {}
    if args.battery_capacity_j is not None:
        telemetry_kwargs["battery_capacity_j"] = args.battery_capacity_j
    telemetry = ServeTelemetry(slo_policy=slo_policy, **telemetry_kwargs)
    registry = MetricsRegistry()

    run_config = {
        "duration_s": args.duration,
        "rate_multiplier": args.rate,
        "arrivals": args.arrivals,
        "diurnal": not args.no_diurnal,
        "burst": args.burst,
        "max_devices": args.max_devices,
        "queue_depth": args.queue_depth,
        "max_inflight": args.max_inflight,
        "slo_policy": args.slo_policy,
        "battery_capacity_j": args.battery_capacity_j,
        **_edge_config(args),
    }
    try:
        flight = _build_flight(args, run_config)
    except ValueError as exc:
        print(f"repro loadtest: {exc}", file=sys.stderr)
        return 2
    if flight is not None:
        flight.attach(telemetry)
    tracer = None
    if args.trace_out is not None:
        tracer = obs_trace.enable(
            capacity=args.trace_capacity,
            sample_rate=args.trace_sample_rate,
        )

    recorder = ManifestRecorder("loadtest", config=run_config, seed=args.seed)
    try:
        with recorder:
            report, workload = run_loadtest(
                default_log(),
                LoadGenConfig(
                    duration_s=args.duration,
                    rate_multiplier=args.rate,
                    seed=args.seed,
                    arrivals=args.arrivals,
                    diurnal=not args.no_diurnal,
                    max_devices=args.max_devices,
                    n_regions=(
                        edge_topology.n_regions or edge_topology.n_nodes
                        if edge_topology is not None
                        else None
                    ),
                    placement_skew=args.placement_skew,
                    burst_start_s=burst_start,
                    burst_duration_s=burst_duration,
                    burst_multiplier=burst_multiplier,
                ),
                ServeConfig(
                    queue_depth=args.queue_depth,
                    max_inflight=args.max_inflight,
                ),
                telemetry=telemetry,
                registry=registry,
                edge_topology=edge_topology,
            )
            recorder.add_metric("offered_rate_rps", workload.offered_rate)
            recorder.add_metric("n_devices", workload.n_devices)
            if report.slo is not None:
                recorder.add_metric("slo", report.slo)
            if flight is not None:
                flight.finalize(force=args.flight_dump)
                recorder.add_metric(
                    "flight_bundles", len(flight.triggers.dumped)
                )
    except (ValueError, RuntimeError) as exc:
        print(f"repro loadtest: {exc}", file=sys.stderr)
        return 2
    finally:
        if tracer is not None:
            obs_trace.disable()

    if flight is not None:
        for path in flight.triggers.dumped:
            print(f"wrote flight bundle to {path}")
    if tracer is not None:
        written = tracer.export_jsonl(args.trace_out)
        print(
            f"wrote {written} trace records to {args.trace_out} "
            f"(sampled out {tracer.sampled_out}, evicted {tracer.dropped})"
        )

    print(
        f"=== loadtest: {workload.n_requests} requests over "
        f"{args.duration:.0f}s simulated ({workload.n_devices} devices, "
        f"{workload.offered_rate:.3f} req/s offered) ==="
    )
    print(format_table(_report_rows(report), ["metric", "value"]))
    _print_slo(report)

    if args.snapshot_out:
        with open(args.snapshot_out, "w") as fh:
            json.dump({"serve": telemetry.snapshot()}, fh, indent=2)
        print(f"wrote telemetry snapshot to {args.snapshot_out}")
    if args.metrics_port is not None:
        asyncio.run(
            _serve_endpoint(
                registry, telemetry, args.metrics_port, args.metrics_serve_s
            )
        )

    exit_code = 0
    if args.fail_on_alert and report.slo is not None and not report.slo["passed"]:
        print(
            "repro loadtest: SLO verdict fail (--fail-on-alert)",
            file=sys.stderr,
        )
        exit_code = 1
    if report.energy_conserved is False:
        # Attribution drifting from the simulated radio timeline is an
        # accounting bug, never load-dependent noise — always a failure.
        print(
            f"repro loadtest: energy attribution not conserved "
            f"(attributed {report.attributed_radio_j:.6f} J vs timeline "
            f"{report.timeline_radio_j:.6f} J, "
            f"error {report.conservation_error_j:.3e} J)",
            file=sys.stderr,
        )
        exit_code = 1
    lost = report.requests - report.completed - report.shed
    if lost:
        print(
            f"repro loadtest: {lost} requests neither completed nor shed",
            file=sys.stderr,
        )
        exit_code = 1
    if args.max_shed_rate is not None and report.shed_rate > args.max_shed_rate:
        print(
            f"repro loadtest: shed rate {report.shed_rate:.3f} exceeds "
            f"--max-shed-rate {args.max_shed_rate}",
            file=sys.stderr,
        )
        exit_code = 1
    _write_manifest(recorder, report, args.manifest_out)
    return exit_code
