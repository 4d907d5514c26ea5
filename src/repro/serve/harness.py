"""Serve-mode harnesses: replay equivalence and open-loop load tests.

``serve_replay`` runs the Section 6.2 replay *through the online
server* on the deterministic virtual clock: every selected user becomes
a device session, every logged event is submitted open-loop at its
in-month offset, and the per-user outcomes are collected into the same
:class:`~repro.sim.replay.ReplayResult` shape ``run_replay`` produces.
Because each device's backend is driven strictly in submission order
and the outcome records *model* costs (queueing is a separate
serve-layer metric), the hit/miss/latency accounting matches the
offline replay bit-for-bit — the differential test the serving layer is
held to.

``run_loadtest`` drives a server with a :mod:`repro.serve.loadgen`
workload (typically at a deliberate overload) and reports how the
admission control held up.

Both submit open loop: each arrival is submitted from a loop timer set
for its offset, then the harness drains the server and collects every
reply.  A request that failed raises its error out of the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.edge.tier import EdgeTier, EdgeTopology
from repro.logs.generator import SearchLog
from repro.logs.schema import MONTH_SECONDS, UserClass
from repro.obs.registry import MetricsRegistry, nearest_rank
from repro.obs.slo import SLOPolicy
from repro.obs.trace import get_tracer
from repro.pocketsearch.content import (
    ContentPolicy,
    PAPER_OPERATING_POINT,
    build_cache_content,
    result_record_bytes,
)
from repro.pocketsearch.engine import PocketSearchEngine
from repro.serve.backends import DailyUpdateBackend, SearchBackend
from repro.serve.loadgen import LoadGenConfig, Workload, build_workload
from repro.serve.requests import Overloaded, ServeRequest, ServeResponse
from repro.serve.server import CloudletServer, ServeConfig
from repro.serve.telemetry import ServeTelemetry
from repro.serve.vclock import run_simulated
from repro.sim.metrics import MetricsCollector
from repro.sim.replay import (
    CacheMode,
    ReplayConfig,
    ReplayResult,
    UserReplayResult,
    _daily_contents,
    make_cache,
    select_replay_users,
)

__all__ = ["ServeReport", "serve_replay", "run_loadtest", "run_workload"]


def _percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of a pre-sorted list (nan when empty)."""
    return nearest_rank(ordered, q) if ordered else float("nan")


@dataclass
class ServeReport:
    """Serving-layer accounting of one serve run.

    Latency fields are *sojourn* times — submission to completion as the
    user experienced them on the loop clock, including queueing — for
    admitted requests only (sheds resolve instantly by design).
    """

    requests: int = 0
    completed: int = 0
    shed: int = 0
    hits: int = 0
    misses: int = 0
    fetches: int = 0
    piggybacked: int = 0
    duration_s: float = 0.0
    sojourn_p50_s: float = float("nan")
    sojourn_p99_s: float = float("nan")
    sojourn_max_s: float = float("nan")
    queue_wait_p99_s: float = float("nan")
    #: trace-segment percentiles (from per-response breakdowns)
    refresh_blocked_p99_s: float = float("nan")
    batch_wait_p99_s: float = float("nan")
    service_p99_s: float = float("nan")
    shed_reasons: Dict[str, int] = field(default_factory=dict)
    #: SLO verdict (``SLOMonitor.verdict()``) when a policy was attached
    slo: Optional[Dict[str, Any]] = None
    #: slowest-request exemplars, each a full segment timeline
    exemplars: List[Dict[str, Any]] = field(default_factory=list)
    #: attributed-energy accounting (NaN/None when no response carried a
    #: breakdown — e.g. a backend without energy attribution)
    energy_j_total: float = 0.0
    energy_j_per_query: float = float("nan")
    energy_j_p50: float = float("nan")
    energy_j_p99: float = float("nan")
    hit_energy_j: float = float("nan")
    miss_energy_j: float = float("nan")
    #: the online Figure 15b: mean miss joules over mean hit joules
    hit_miss_energy_ratio: float = float("nan")
    attributed_radio_j: float = 0.0
    timeline_radio_j: float = 0.0
    conservation_error_j: float = 0.0
    #: whether attributed radio joules matched the simulated timeline
    energy_conserved: Optional[bool] = None
    battery_capacity_j: float = float("nan")
    battery_min_level: float = float("nan")
    #: mean projected charge fraction burned per simulated day
    battery_day_fraction: float = float("nan")
    #: projected queries one full charge sustains at the observed mean
    queries_per_charge: Optional[int] = None
    #: cooperative edge tier accounting (``EdgeTier.stats()``; None when
    #: no cloudlet tier was configured)
    edge: Optional[Dict[str, Any]] = None
    #: p99 cloudlet time (edge_hop + edge_serve) of edge-path requests
    edge_hop_p99_s: float = float("nan")
    #: worst |per-hop re-sum - end-to-end| over all responses; the
    #: acceptance bound is 1e-9 on both
    hop_resum_error_s: float = float("nan")
    hop_resum_error_j: float = float("nan")

    @property
    def shed_rate(self) -> float:
        return self.shed / self.requests if self.requests else 0.0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.completed if self.completed else 0.0

    @property
    def throughput_rps(self) -> float:
        return self.completed / self.duration_s if self.duration_s else 0.0

    @property
    def batch_efficiency(self) -> float:
        """Fraction of miss fetches avoided by single-flight sharing."""
        total = self.fetches + self.piggybacked
        return self.piggybacked / total if total else 0.0

    def to_metrics(self) -> Dict[str, float]:
        """Flat mapping for run manifests / BENCH emission."""
        out = {
            "requests": self.requests,
            "completed": self.completed,
            "shed": self.shed,
            "shed_rate": self.shed_rate,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "fetches": self.fetches,
            "piggybacked": self.piggybacked,
            "batch_efficiency": self.batch_efficiency,
            "duration_s": self.duration_s,
            "throughput_rps": self.throughput_rps,
            "sojourn_p50_s": self.sojourn_p50_s,
            "sojourn_p99_s": self.sojourn_p99_s,
            "sojourn_max_s": self.sojourn_max_s,
            "queue_wait_p99_s": self.queue_wait_p99_s,
            "refresh_blocked_p99_s": self.refresh_blocked_p99_s,
            "batch_wait_p99_s": self.batch_wait_p99_s,
            "service_p99_s": self.service_p99_s,
        }
        # Energy metrics are only meaningful when responses carried
        # breakdowns; NaNs are omitted so manifests stay clean JSON for
        # downstream tooling (jq, bench-gate).
        for name in (
            "energy_j_total",
            "energy_j_per_query",
            "energy_j_p50",
            "energy_j_p99",
            "hit_energy_j",
            "miss_energy_j",
            "hit_miss_energy_ratio",
            "attributed_radio_j",
            "timeline_radio_j",
            "conservation_error_j",
            "battery_capacity_j",
            "battery_min_level",
            "battery_day_fraction",
            "edge_hop_p99_s",
            "hop_resum_error_s",
            "hop_resum_error_j",
        ):
            value = getattr(self, name)
            if value == value:  # not NaN
                out[name] = value
        if self.energy_conserved is not None:
            out["energy_conserved"] = 1.0 if self.energy_conserved else 0.0
        if self.queries_per_charge is not None:
            out["queries_per_charge"] = float(self.queries_per_charge)
        for reason, count in sorted(self.shed_reasons.items()):
            out["shed_" + reason.replace("-", "_")] = count
        if self.edge is not None:
            out["community_hit_rate"] = float(self.edge["community_hit_rate"])
            out["edge_hits"] = float(self.edge["community_hits"])
            out["edge_misses"] = float(self.edge["community_misses"])
            out["edge_sheds"] = float(self.edge["sheds"])
            out["edge_origin_fetches"] = float(self.edge["origin_fetches"])
            out["edge_flushes"] = float(self.edge["origin"]["flushes"])
            out["edge_bytes_uploaded"] = float(
                self.edge["origin"]["bytes_uploaded"]
            )
        if self.slo is not None:
            out["slo_passed"] = 1.0 if self.slo.get("passed") else 0.0
            out["slo_alerts_total"] = float(self.slo.get("alerts_total", 0))
        return out


def _build_report(
    replies: List[object], server: CloudletServer, duration_s: float
) -> ServeReport:
    report = ServeReport(
        requests=len(replies),
        fetches=server.batcher.fetches,
        piggybacked=server.batcher.piggybacked,
    )
    edge_tier = server.edge
    sojourns: List[float] = []
    waits: List[float] = []
    refresh_blocked: List[float] = []
    batch_waits: List[float] = []
    services: List[float] = []
    edge_hops: List[float] = []
    energies: List[float] = []
    hit_energies: List[float] = []
    miss_energies: List[float] = []
    hop_err_s = 0.0
    hop_err_j = 0.0
    for reply in replies:
        if isinstance(reply, Overloaded):
            report.shed += 1
            report.shed_reasons[reply.reason] = (
                report.shed_reasons.get(reply.reason, 0) + 1
            )
            continue
        assert isinstance(reply, ServeResponse)
        report.completed += 1
        if reply.outcome.hit:
            report.hits += 1
        else:
            report.misses += 1
        sojourns.append(reply.sojourn_s)
        breakdown = reply.breakdown()
        waits.append(breakdown["queue_wait"])
        refresh_blocked.append(breakdown["refresh_blocked"])
        batch_waits.append(breakdown["batch_wait"])
        services.append(breakdown["service"])
        if edge_tier is not None:
            edge_hops.append(breakdown["edge_hop"] + breakdown["edge_serve"])
            hops = reply.hop_breakdown()
            lat_sum = (
                hops["device"]["latency_s"] + hops["edge"]["latency_s"]
            ) + hops["origin"]["latency_s"]
            j_sum = (
                hops["device"]["energy_j"] + hops["edge"]["energy_j"]
            ) + hops["origin"]["energy_j"]
            hop_err_s = max(hop_err_s, abs(lat_sum - reply.sojourn_s))
            hop_err_j = max(hop_err_j, abs(j_sum - reply.energy_j))
        if reply.energy is not None:
            joules = reply.energy.total_j
            energies.append(joules)
            (hit_energies if reply.outcome.hit else miss_energies).append(
                joules
            )
        duration_s = max(duration_s, reply.completed_at)
    report.duration_s = duration_s
    for values, attr in (
        (sojourns, None),
        (waits, "queue_wait_p99_s"),
        (refresh_blocked, "refresh_blocked_p99_s"),
        (batch_waits, "batch_wait_p99_s"),
        (services, "service_p99_s"),
    ):
        values.sort()
        if attr is not None:
            setattr(report, attr, _percentile(values, 99))
    report.sojourn_p50_s = _percentile(sojourns, 50)
    report.sojourn_p99_s = _percentile(sojourns, 99)
    report.sojourn_max_s = sojourns[-1] if sojourns else float("nan")
    if edge_tier is not None:
        # End-of-run settlement: propagate every pending popularity
        # delta so the origin's books are complete before snapshotting.
        edge_tier.flush_all()
        report.edge = edge_tier.stats()
        edge_hops.sort()
        report.edge_hop_p99_s = _percentile(edge_hops, 99)
        report.hop_resum_error_s = hop_err_s
        report.hop_resum_error_j = hop_err_j
    if energies:
        energies.sort()
        report.energy_j_total = sum(energies)
        report.energy_j_per_query = report.energy_j_total / len(energies)
        report.energy_j_p50 = _percentile(energies, 50)
        report.energy_j_p99 = _percentile(energies, 99)
        if hit_energies:
            report.hit_energy_j = sum(hit_energies) / len(hit_energies)
        if miss_energies:
            report.miss_energy_j = sum(miss_energies) / len(miss_energies)
        if hit_energies and miss_energies and report.hit_energy_j > 0:
            report.hit_miss_energy_ratio = (
                report.miss_energy_j / report.hit_energy_j
            )
    telemetry = server.telemetry
    telemetry.finalize()
    ledger = telemetry.energy.ledger
    if ledger.requests:
        report.attributed_radio_j = ledger.attributed_j
        report.timeline_radio_j = ledger.timeline_j
        report.conservation_error_j = ledger.conservation_error_j
        report.energy_conserved = ledger.conserved()
    batteries = telemetry.batteries.snapshot(telemetry.t_last)
    if batteries["n_devices"]:
        report.battery_capacity_j = batteries["capacity_j"]
        report.battery_min_level = batteries["min_level"]
        report.battery_day_fraction = batteries["mean_burn_per_day"]
        report.queries_per_charge = batteries["queries_per_charge"]
    report.slo = telemetry.verdict()
    report.exemplars = telemetry.exemplars(telemetry.t_last)
    return report


# -- open-loop submission ---------------------------------------------------


async def _submit_schedule(
    server: CloudletServer,
    schedule: List[Tuple[float, ServeRequest]],
) -> List["object"]:
    """Submit requests at their scheduled offsets; gather all replies.

    Open-loop: submission timing depends only on the schedule, never on
    how fast the server answers.  Each arrival is submitted from a loop
    timer (``call_later``) set for ``origin + offset``, so an arrival
    costs one loop turn and no task wake-up; arrivals already due are
    submitted in the same callback.  An exception from ``submit`` or
    from a request's backend propagates, and cancelling the caller
    cancels the pending arrival timer.
    """
    import asyncio

    loop = asyncio.get_running_loop()
    origin = loop.time()
    futures: List["asyncio.Future"] = []
    arrivals = iter(schedule)
    submitted = loop.create_future()
    timer: Optional["asyncio.TimerHandle"] = None

    def submit_due(request: Optional[ServeRequest] = None) -> None:
        nonlocal timer
        try:
            if request is not None:
                futures.append(server.submit(request))
            for offset, request in arrivals:
                delay = origin + offset - loop.time()
                if delay > 0:
                    timer = loop.call_later(delay, submit_due, request)
                    return
                futures.append(server.submit(request))
        except Exception as exc:
            if submitted.done():
                # Nobody awaits the schedule any more: the loop's
                # exception handler reports it.
                raise
            submitted.set_exception(exc)
            return
        if not submitted.done():
            submitted.set_result(None)

    submit_due()
    try:
        await submitted
    finally:
        if timer is not None:
            timer.cancel()
    await server.drain()
    try:
        return [f.result() for f in futures]
    except Exception:
        # Mark every failed request's exception retrieved; raise the
        # first.
        for f in futures:
            f.exception()
        raise


async def run_workload(server: CloudletServer, workload: Workload) -> ServeReport:
    """Drive ``server`` with ``workload`` and report what happened."""
    try:
        replies = await _submit_schedule(server, workload.arrivals)
    finally:
        await server.close()
    return _build_report(replies, server, workload.duration_s)


# -- replay equivalence -----------------------------------------------------

#: Serve config of the equivalence harness: generous bounds so nothing
#: is shed (a shed request would diverge from the offline replay by
#: construction — the equivalence test asserts shed == 0).
EQUIVALENCE_SERVE_CONFIG = ServeConfig(
    queue_depth=100_000, max_inflight=1_000_000, time_scale=1.0
)


def _edge_warm_keys(content) -> List[Tuple[str, float]]:
    """``(query, score)`` warm-seed rankings from cache content (each
    query once, at its best pair score)."""
    scores: Dict[str, float] = {}
    for entry in content.entries:
        prev = scores.get(entry.query)
        if prev is None or entry.score > prev:
            scores[entry.query] = entry.score
    return sorted(scores.items())


def serve_replay(
    log: SearchLog,
    config: ReplayConfig = ReplayConfig(),
    modes: Iterable[str] = (CacheMode.FULL,),
    serve_config: Optional[ServeConfig] = None,
    edge_topology: Optional[EdgeTopology] = None,
) -> Tuple[Dict[str, ReplayResult], Dict[str, ServeReport]]:
    """Run the replay experiment through the online server.

    Same inputs and accounting as :func:`repro.sim.replay.run_replay`;
    executed as live traffic on the deterministic virtual clock.

    Args:
        edge_topology: when given, a fresh cooperative cloudlet tier
            fronts the origin for each mode.  The per-device outcome
            model is untouched, so the per-user accounting stays
            exactly comparable to ``run_replay`` at any topology.

    Returns:
        ``(results, reports)`` — per-mode :class:`ReplayResult` exactly
        comparable to ``run_replay``'s, and per-mode serving-layer
        :class:`ServeReport`.
    """
    serve_config = serve_config or EQUIVALENCE_SERVE_CONFIG
    tracer = get_tracer()
    with tracer.span("serve_build_cache_content", month=config.build_month):
        content = build_cache_content(log.month(config.build_month), config.policy)
    selected_users = select_replay_users(
        log, config.replay_month, config.users_per_class, config.seed
    )
    t_start = config.replay_month * MONTH_SECONDS
    t_end = t_start + MONTH_SECONDS
    daily_contents = (
        _daily_contents(log, config) if config.daily_updates else []
    )
    work: List[Tuple[UserClass, int]] = [
        (user_class, uid)
        for user_class, uids in selected_users.items()
        for uid in uids
    ]

    results: Dict[str, ReplayResult] = {}
    reports: Dict[str, ServeReport] = {}
    for mode in modes:
        with tracer.span("serve_mode", mode=mode) as span:
            users, report = run_simulated(
                _serve_mode(
                    log, content, daily_contents, config, mode, work,
                    t_start, t_end, serve_config, edge_topology,
                )
            )
            result = ReplayResult(mode=mode, users=users)
            span.set_attrs(
                n_users=len(users),
                overall_hit_rate=result.overall_hit_rate(),
                shed=report.shed,
                batch_efficiency=report.batch_efficiency,
            )
        results[mode] = result
        reports[mode] = report
    return results, reports


async def _serve_mode(
    log: SearchLog,
    content,
    daily_contents,
    config: ReplayConfig,
    mode: str,
    work: List[Tuple[UserClass, int]],
    t_start: float,
    t_end: float,
    serve_config: ServeConfig,
    edge_topology: Optional[EdgeTopology] = None,
) -> Tuple[List[UserReplayResult], ServeReport]:
    updates_on = config.daily_updates and mode != CacheMode.PERSONALIZATION_ONLY
    # Every device starts from the same cache: load it once, copy it
    # per device.
    image = make_cache(content, mode)

    def backend_factory(device_id: int):
        engine = PocketSearchEngine(image.copy())
        backend = SearchBackend(engine)
        if updates_on:
            # Event-synced nightly refresh: replay-equivalent ordering
            # even when a session crosses midnight with a backlog.
            return DailyUpdateBackend(backend, daily_contents, t_start)
        return backend

    edge = None
    if edge_topology is not None:
        # One fresh tier per mode: cloudlet slices, like device caches,
        # must not leak state across modes.
        edge = EdgeTier(edge_topology)
        if edge_topology.warm:
            edge.seed_from_scores(_edge_warm_keys(content))
    server = CloudletServer(
        backend_factory, serve_config, registry=MetricsRegistry(), edge=edge
    )

    # Per-user schedules in log order, stably merged by arrival offset —
    # a stable sort keeps each device's events in submission order, the
    # invariant the equivalence guarantee rests on.
    schedule: List[Tuple[float, ServeRequest]] = []
    order: List[Tuple[UserClass, int]] = []
    for user_class, uid in work:
        order.append((user_class, uid))
        stream = log.for_user(uid).window(t_start, t_end)
        for i in range(stream.n_events):
            t = float(stream.timestamps[i])
            schedule.append(
                (
                    t - t_start,
                    ServeRequest(
                        device_id=uid,
                        key=stream.query_string(int(stream.query_keys[i])),
                        timestamp=t,
                        clicked_url=stream.result_url(
                            int(stream.result_keys[i])
                        ),
                        record_bytes=result_record_bytes(
                            stream, int(stream.result_keys[i])
                        ),
                        navigational=bool(stream.navigational[i]),
                    ),
                )
            )
    schedule.sort(key=lambda pair: pair[0])

    try:
        replies = await _submit_schedule(server, schedule)
    finally:
        await server.close()

    # Fold replies back into per-user collectors in submission order, so
    # they hold outcome sequences identical to the offline replay's.
    by_user: Dict[int, List[ServeResponse]] = {uid: [] for _, uid in work}
    for reply in replies:
        if isinstance(reply, ServeResponse):
            by_user[reply.request.device_id].append(reply)
    users: List[UserReplayResult] = []
    for user_class, uid in order:
        collector = MetricsCollector()
        for response in by_user[uid]:
            collector.record(response.outcome)
        users.append(
            UserReplayResult(
                user_id=uid, user_class=user_class, metrics=collector
            )
        )
    report = _build_report(replies, server, t_end - t_start)
    return users, report


# -- load testing -----------------------------------------------------------


def run_loadtest(
    log: SearchLog,
    loadgen: LoadGenConfig = LoadGenConfig(),
    serve_config: ServeConfig = ServeConfig(),
    build_month: int = 0,
    workload_month: int = 1,
    policy: ContentPolicy = PAPER_OPERATING_POINT,
    slo_policy: Optional[SLOPolicy] = None,
    telemetry: Optional[ServeTelemetry] = None,
    registry: Optional[MetricsRegistry] = None,
    battery_capacity_j: Optional[float] = None,
    edge_topology: Optional[EdgeTopology] = None,
) -> Tuple[ServeReport, Workload]:
    """Load-test the server on the virtual clock.

    Devices serve from copies of one full-mode cache whose community
    content is mined from ``build_month``; the workload replays
    ``workload_month`` traffic at ``loadgen.rate_multiplier`` times its
    natural rate.

    Args:
        slo_policy: if set, the run is monitored against it; the verdict
            lands in ``report.slo`` and burn-rate alerts are emitted as
            ``slo_alert`` tracer events.
        telemetry: pre-built telemetry plane (wins over ``slo_policy``);
            pass one to keep a handle for snapshots/exposition after the
            run.
        battery_capacity_j: per-device battery size for drain tracking
            (defaults to the Xperia X1a battery; ignored when a
            pre-built ``telemetry`` is passed).
        edge_topology: when given, a cooperative cloudlet tier fronts
            the origin (warm-seeded from the build-month content when
            ``edge_topology.warm``); edge accounting lands in
            ``report.edge`` and the per-hop report fields.
    """
    content = build_cache_content(log.month(build_month), policy)
    workload = build_workload(log, workload_month, loadgen)
    if telemetry is None:
        kwargs: Dict[str, Any] = {"slo_policy": slo_policy}
        if battery_capacity_j is not None:
            kwargs["battery_capacity_j"] = battery_capacity_j
        telemetry = ServeTelemetry(**kwargs)

    # The community image every phone bulk-loads (Section 5.1), loaded
    # once; each device serves from its own copy.
    image = make_cache(content, CacheMode.FULL)

    def backend_factory(device_id: int) -> SearchBackend:
        return SearchBackend(PocketSearchEngine(image.copy()))

    edge = None
    if edge_topology is not None:
        edge = EdgeTier(edge_topology)
        if edge_topology.warm:
            edge.seed_from_scores(_edge_warm_keys(content))
    server = CloudletServer(
        backend_factory,
        serve_config,
        registry=registry if registry is not None else MetricsRegistry(),
        telemetry=telemetry,
        edge=edge,
    )
    report = run_simulated(run_workload(server, workload))
    return report, workload
