"""The serving stack's always-on telemetry plane.

One :class:`ServeTelemetry` instance rides along with each
:class:`~repro.serve.server.CloudletServer`: the server calls its three
hooks (submit / shed / response) on the request path, and everything
else — rolling windows, slow-request exemplars, SLO burn-rate alerts,
live-view callbacks — derives from those events.

Design constraints, in order:

* **deterministic** — all state is keyed by loop-clock timestamps the
  server passes in, so under
  :class:`~repro.serve.vclock.VirtualTimeLoop` two runs of a workload
  produce identical windows, identical exemplars, and identical alert
  sequences;
* **cheap** — a few ring-bucket updates per request, no allocation
  proportional to traffic, no background task (SLO evaluation is
  piggybacked on the first event of each new bucket);
* **complete** — sheds are first-class events, not gaps: shed-rate
  windows and shed-aware SLO rules see every rejected request.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set

from repro.obs.energy import EnergyWindows
from repro.obs.slo import SLOAlert, SLOMonitor, SLOPolicy
from repro.obs.timeseries import (
    BucketRing,
    RequestRecord,
    ServeBucket,
    slowest,
    window_count,
    window_quantile,
)
from repro.obs.trace import get_tracer
from repro.serve.requests import Overloaded, ServeResponse
from repro.sim.battery import DEFAULT_CAPACITY_J, FleetBatteries

__all__ = ["ServeTelemetry"]

#: Bucket geometry: 1-second buckets, 2-minute window.
BUCKET_WIDTH_S = 1.0
N_BUCKETS = 120
#: Most-drained devices surfaced per snapshot.
BATTERY_WORST_K = 8


class ServeTelemetry:
    """Windowed metrics + exemplars + SLO monitoring for one server.

    Every completed request is reduced once, to a
    :class:`~repro.obs.timeseries.RequestRecord`, and folded into one
    :class:`~repro.obs.timeseries.ServeBucket` ring; the rolling view,
    the per-bucket rows, the energy windows and the flight recorder's
    bucket rows all read that ring.

    Args:
        slo_policy: optional SLO policy to monitor; alerts surface as
            ``slo_alert`` tracer events and in :meth:`verdict`.
        battery_capacity_j: full-charge energy of each device's modelled
            battery (drained by every attributed response).
    """

    def __init__(
        self,
        slo_policy: Optional[SLOPolicy] = None,
        battery_capacity_j: float = DEFAULT_CAPACITY_J,
    ) -> None:
        self._ring = BucketRing(BUCKET_WIDTH_S, N_BUCKETS, ServeBucket)
        #: answering tiers seen, including ones aged out of the window
        self._tiers: Set[str] = set()
        #: windowed per-request energy attribution + conservation ledger
        self.energy = EnergyWindows(self._ring)
        #: per-device battery drain (projections feed the SLO engine)
        self.batteries = FleetBatteries(capacity_j=battery_capacity_j)
        self.slo: Optional[SLOMonitor] = (
            SLOMonitor(slo_policy, width_s=BUCKET_WIDTH_S)
            if slo_policy is not None
            else None
        )
        #: called as ``fn(t, self)`` once per completed bucket — the
        #: ``repro top`` live view hangs off this.
        self.on_tick: List[Callable[[float, "ServeTelemetry"], None]] = []
        #: attached :class:`~repro.obs.flight.FlightRecorder` (None when
        #: no black-box capture rides along); set by ``attach()``.
        self.flight: Optional[Any] = None
        #: zero-arg edge-tier stats thunk (``EdgeTier.stats``), wired by
        #: the server when a cloudlet tier is configured — feeds the
        #: per-node Prometheus samples and the flight recorder's
        #: per-tick edge snapshots.  The recorder keeps the returned
        #: dict by reference, so it must never change once returned.
        self.edge_stats_fn: Optional[Callable[[], Dict[str, Any]]] = None
        #: the bucket the latest events landed in
        self._bucket: Optional[int] = None
        self._t_last = 0.0

    @property
    def bucket_width_s(self) -> float:
        return self._ring.width_s

    @property
    def window_s(self) -> float:
        return self._ring.window_s

    @property
    def t_last(self) -> float:
        """Loop time of the latest event seen (0.0 before any)."""
        return self._t_last

    # -- server hooks --------------------------------------------------------

    def on_submit(self, t: float, inflight: int) -> None:
        """An admitted request (admission sheds go to :meth:`on_shed`)."""
        self._maybe_tick(t)
        bucket = self._ring.at(t)
        bucket.requests += 1
        bucket.observe_inflight(inflight)

    def on_shed(
        self, t: float, reply: Overloaded, admitted: bool = False
    ) -> None:
        """A shed request.  Each submitted request counts once: a shed at
        admission counts here, while an ``admitted`` one (shed later, on
        the edge hop) was already counted by :meth:`on_submit`."""
        self._maybe_tick(t)
        bucket = self._ring.at(t)
        if not admitted:
            bucket.requests += 1
        bucket.add_shed(reply.reason)
        if self.slo is not None:
            self.slo.record_request(t, shed=True)
        if self.flight is not None:
            self.flight.on_shed(t, reply)

    def on_response(self, t: float, response: ServeResponse, inflight: int) -> None:
        self._maybe_tick(t)
        record = RequestRecord(response)
        bucket = self._ring.at(t)
        bucket.add(record)
        bucket.observe_inflight(inflight)
        self._tiers.add(record.tier)
        burn_per_day: Optional[float] = None
        energy_j = record.energy_j
        if energy_j is not None:
            self.energy.on_request(record)
            device_id = record.request.device_id
            self.batteries.drain(device_id, energy_j, t)
            burn_per_day = self.batteries.burn_per_day(device_id, t)
        if self.slo is not None:
            self.slo.record_request(
                t,
                latency_s=record.sojourn_s,
                hit=record.hit,
                energy_j=energy_j,
                battery_burn_per_day=burn_per_day,
            )
        if self.flight is not None:
            self.flight.on_response(t, record)

    # -- bucket ticks --------------------------------------------------------

    def _maybe_tick(self, t: float) -> None:
        """Run once-per-bucket work when an event lands in a new bucket."""
        self._t_last = max(self._t_last, t)
        bucket = int(t // BUCKET_WIDTH_S)
        if bucket == self._bucket:
            return
        if self._bucket is not None:
            # Evaluate at the boundary the previous bucket closed on, so
            # alert timestamps are bucket-aligned and run-to-run stable.
            t_eval = bucket * BUCKET_WIDTH_S
            self._evaluate(t_eval)
            for callback in self.on_tick:
                callback(t_eval, self)
        self._bucket = bucket

    def closing_bucket(self) -> ServeBucket:
        """The aggregate of the bucket the latest events landed in —
        during ``on_tick`` callbacks, the bucket being closed (empty
        before any event)."""
        bucket = None if self._bucket is None else self._ring.get(self._bucket)
        return bucket if bucket is not None else ServeBucket()

    def _evaluate(self, t: float) -> List[SLOAlert]:
        if self.slo is None:
            return []
        fired = self.slo.evaluate(t)
        if fired:
            tracer = get_tracer()
            for alert in fired:
                tracer.event("slo_alert", **alert.to_dict())
            if self.flight is not None:
                self.flight.on_alerts(t, fired)
        return fired

    def finalize(self, t: Optional[float] = None) -> None:
        """Close out the run: one last SLO evaluation at ``t`` (defaults
        to the latest event time)."""
        self._evaluate(self._t_last if t is None else t)

    def verdict(self) -> Optional[Dict[str, Any]]:
        """The SLO verdict (None when no policy is attached)."""
        return self.slo.verdict() if self.slo is not None else None

    # -- read side -----------------------------------------------------------

    def rolling(self, t: float) -> Dict[str, Any]:
        """Headline rolling stats over the window ending at ``t``."""
        buckets = [b for _, b in self._ring.live(t)]
        window_s = self._ring.window_s
        requests = window_count(b.requests for b in buckets)
        completed = window_count(b.completed for b in buckets)
        shed = window_count(b.shed for b in buckets)
        hits = sum(b.hits for b in buckets)
        fetches = sum(b.fetches for b in buckets)
        piggybacked = sum(b.piggybacked for b in buckets)
        shared_total = fetches + piggybacked
        inflight = [b for b in buckets if b.inflight is not None]
        return {
            "request_rate_rps": requests / window_s,
            "completed_rate_rps": completed / window_s,
            "requests": requests,
            "completed": completed,
            "shed": shed,
            "hit_rate": hits / completed if completed else float("nan"),
            "shed_rate": shed / requests if requests else 0.0,
            "sojourn_p50_s": window_quantile((b.sojourn for b in buckets), 50),
            "sojourn_p99_s": window_quantile((b.sojourn for b in buckets), 99),
            "queue_wait_p99_s": window_quantile(
                (b.queue_wait for b in buckets), 99
            ),
            "batch_wait_p99_s": window_quantile(
                (b.batch_wait for b in buckets), 99
            ),
            "service_p99_s": window_quantile((b.service for b in buckets), 99),
            "batch_efficiency": (
                piggybacked / shared_total if shared_total else 0.0
            ),
            "edge_hop_p99_s": window_quantile(
                (b.edge_hop for b in buckets), 99
            ),
            "tiers": {
                name: window_count(b.tiers.get(name, 0) for b in buckets)
                for name in sorted(self._tiers)
            },
            "inflight": inflight[-1].inflight if inflight else float("nan"),
            "inflight_hwm": (
                max(b.inflight_max for b in inflight)
                if inflight
                else float("nan")
            ),
        }

    def per_bucket(self, t: float) -> List[Dict[str, Any]]:
        """Aligned per-bucket rows (completed, hit rate, shed, p99,
        in-flight high-watermark), oldest first."""
        width = self._ring.width_s
        rows = []
        for idx, b in self._ring.live(t):
            sojourn = b.sojourn
            rows.append(
                {
                    "t_start": idx * width,
                    "requests": float(b.requests),
                    "completed": float(b.completed),
                    "shed": float(b.shed),
                    "hit_rate": (
                        b.hits / b.completed if b.completed else None
                    ),
                    "sojourn_p50_s": (
                        sojourn.quantile(50) if sojourn.count else None
                    ),
                    "sojourn_p99_s": (
                        sojourn.quantile(99) if sojourn.count else None
                    ),
                    "inflight_hwm": (
                        b.inflight_max if b.inflight is not None else None
                    ),
                }
            )
        return rows

    def exemplars(self, t: float) -> List[Dict[str, Any]]:
        """The slowest requests in the window ending at ``t``, each with
        its full segment timeline."""
        return slowest(b for _, b in self._ring.live(t))

    def prometheus_samples(self, t: Optional[float] = None) -> List[Any]:
        """Labeled gauge samples for the Prometheus endpoint.

        Per-source rolling wattage and joules, the fleet battery
        aggregates, and the worst-drained devices' charge levels —
        dimensions the flat process registry cannot carry.
        """
        t = self._t_last if t is None else t
        samples: List[Any] = []
        rolling = self.energy.rolling(t)
        for source, stats in rolling["sources"].items():
            labels = {"source": source}
            samples.append(("serve.energy.source_power_w", labels, stats["power_w"]))
            samples.append(("serve.energy.source_joules", labels, stats["energy_j"]))
        conservation = rolling["conservation"]
        samples.append(
            ("serve.energy.attributed_radio_j", {},
             conservation["attributed_radio_j"])
        )
        samples.append(
            ("serve.energy.timeline_radio_j", {},
             conservation["timeline_radio_j"])
        )
        batteries = self.batteries.snapshot(t, worst_k=BATTERY_WORST_K)
        if batteries["n_devices"]:
            samples.append(
                ("serve.battery.min_level", {}, batteries["min_level"])
            )
            samples.append(
                ("serve.battery.mean_level", {}, batteries["mean_level"])
            )
            for row in batteries["worst"]:
                samples.append(
                    (
                        "serve.battery.level",
                        {"device": str(row["device_id"])},
                        row["level"],
                    )
                )
        if self.edge_stats_fn is not None:
            for node in self.edge_stats_fn()["nodes"]:
                labels = {"node": str(node["node_id"])}
                for field, value in (
                    ("hits", node["hits"]),
                    ("misses", node["misses"]),
                    ("inflight", node["inflight"]),
                    ("sheds", node["sheds"]),
                    ("slice_size", node["size"]),
                ):
                    samples.append(
                        ("serve.edge.node_" + field, labels, value)
                    )
        return samples

    def snapshot(self, t: Optional[float] = None) -> Dict[str, Any]:
        """One JSON-ready document: rolling stats, per-bucket series,
        exemplars, and SLO status — the ``/metrics.json`` extra section
        and the ``repro top`` data source."""
        t = self._t_last if t is None else t
        doc: Dict[str, Any] = {
            "t": t,
            "bucket_width_s": self._ring.width_s,
            "window_s": self._ring.window_s,
            "rolling": self.rolling(t),
            "per_bucket": self.per_bucket(t),
            "exemplars": self.exemplars(t),
            "energy": self.energy.snapshot(t),
            "batteries": self.batteries.snapshot(t, worst_k=BATTERY_WORST_K),
        }
        if self.slo is not None:
            doc["slo"] = {
                "status": self.slo.status(t),
                "alerts_total": len(self.slo.alerts),
            }
        if self.flight is not None:
            doc["flight"] = self.flight.status()
        return doc
