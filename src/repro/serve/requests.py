"""Request/response types of the online serving layer."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Union

from repro.obs.energy import EnergyBreakdown
from repro.obs.trace import TraceContext
from repro.pocketsearch.content import DEFAULT_RECORD_BYTES
from repro.sim.metrics import QueryOutcome

__all__ = [
    "Overloaded",
    "SEGMENT_NAMES",
    "ServeRequest",
    "ServeResponse",
    "ServeReply",
    "TIER_NAMES",
]

#: Segment names every response breakdown reports, in causal order.
#: The edge segments stay 0.0 when no cloudlet tier is configured.
SEGMENT_NAMES = (
    "queue_wait",
    "refresh_blocked",
    "edge_hop",
    "edge_serve",
    "batch_wait",
    "service",
)

#: The serving tiers a request can be answered by, fetch-chain order.
TIER_NAMES = ("device", "edge", "origin")


@dataclass(frozen=True)
class ServeRequest:
    """One live request from a device.

    Attributes:
        device_id: the phone issuing the request (one cache per device).
        key: the lookup key — a query string for PocketSearch, a URL for
            PocketWeb, a packed tile key for PocketMaps.
        timestamp: logical event time in log seconds; carried into the
            recorded :class:`~repro.sim.metrics.QueryOutcome` so serve
            accounting lines up with replay accounting.
        clicked_url: the result the user selects (drives personalization).
        record_bytes: stored size of the clicked result.
        navigational: optional nav flag recorded in the outcome.
    """

    device_id: int
    key: str
    timestamp: float = 0.0
    clicked_url: str = ""
    record_bytes: int = DEFAULT_RECORD_BYTES
    navigational: Optional[bool] = None


@dataclass(frozen=True)
class ServeResponse:
    """A served (admitted and completed) request.

    Times are loop-clock seconds (simulated or wall, depending on the
    loop the server ran under).  The *modelled* device-side cost lives in
    ``outcome``; queueing the serve layer added on top is the difference
    between ``sojourn_s`` and the model latency.
    """

    request: ServeRequest
    outcome: QueryOutcome
    enqueued_at: float
    started_at: float
    completed_at: float
    #: miss piggybacked on another device's identical in-flight fetch
    shared_fetch: bool = False
    #: request-scoped trace: id + causally ordered phase segments
    trace: Optional[TraceContext] = field(default=None, compare=False)
    #: attributed energy breakdown (shared-fetch radio energy already
    #: split across participants); observability metadata, never fed
    #: back into ``outcome``
    energy: Optional[EnergyBreakdown] = field(default=None, compare=False)
    #: simulated radio-timeline joules this response reports for the
    #: conservation ledger (full fetch for a leader/solo, 0.0 for riders)
    radio_timeline_j: float = field(default=0.0, compare=False)
    #: which tier answered: ``"device"`` (personal cache hit), ``"edge"``
    #: (owning cloudlet's community slice), or ``"origin"`` (full fetch)
    tier: str = field(default="device", compare=False)
    #: cloudlet node consulted on the edge path (None off the edge path)
    edge_node: Optional[int] = field(default=None, compare=False)
    #: :meth:`breakdown`, built on its first call
    _segments: Optional[Dict[str, float]] = field(
        default=None, init=False, repr=False, compare=False
    )

    ok = True

    @property
    def queue_wait_s(self) -> float:
        return self.started_at - self.enqueued_at

    @property
    def sojourn_s(self) -> float:
        """Submission-to-completion time as the user experienced it."""
        return self.completed_at - self.enqueued_at

    @property
    def trace_id(self) -> Optional[int]:
        return self.trace.trace_id if self.trace is not None else None

    @property
    def batch_wait_s(self) -> float:
        """Time spent inside the shared single-flight radio fetch."""
        return self.trace.segment_s("batch_wait") if self.trace else 0.0

    @property
    def energy_j(self) -> float:
        """Total attributed joules (0.0 when no breakdown was recorded)."""
        return self.energy.total_j if self.energy is not None else 0.0

    def energy_breakdown(self) -> Dict[str, float]:
        """Component -> joules (all zeros when no breakdown was recorded)."""
        if self.energy is None:
            return EnergyBreakdown().to_dict()
        return self.energy.to_dict()

    def breakdown(self) -> Dict[str, float]:
        """Phase -> seconds over :data:`SEGMENT_NAMES`.

        Segments telescope between consecutive trace marks, so the
        values sum *exactly* to ``sojourn_s`` — the property the
        trace-propagation tests assert to 1e-9.  A response is complete
        when built, so the breakdown is derived once, on the first call,
        and every later call (the telemetry record, the report, the hop
        view) returns the same read-only dict.
        """
        if self._segments is not None:
            return self._segments
        if self.trace is None:
            out = {name: 0.0 for name in SEGMENT_NAMES}
            out["queue_wait"] = self.queue_wait_s
            out["service"] = self.sojourn_s - self.queue_wait_s
        else:
            got = self.trace.breakdown()
            out = {name: got.get(name, 0.0) for name in SEGMENT_NAMES}
        object.__setattr__(self, "_segments", out)
        return out

    def hop_breakdown(self) -> Dict[str, Dict[str, float]]:
        """Per-tier latency seconds and attributed joules.

        Latency partitions the trace segments by the tier that spent
        them (device: queueing, refresh blocking, and local service;
        edge: the cloudlet round trip and its community-slice service;
        origin: the batched radio fetch).  Energy sends the attributed
        radio joules to the tier the radio reached — the answering
        ``tier`` for misses, the device itself for hits — and keeps the
        storage/render/base components on the device.  Both views
        re-sum to ``sojourn_s`` / ``energy_j`` within 1e-9 (the only
        differences are float association order).
        """
        seg = self.breakdown()
        latency = {
            "device": (seg["queue_wait"] + seg["refresh_blocked"])
            + seg["service"],
            "edge": seg["edge_hop"] + seg["edge_serve"],
            "origin": seg["batch_wait"],
        }
        energy = {name: 0.0 for name in TIER_NAMES}
        if self.energy is not None:
            energy["device"] = (
                self.energy.storage_j + self.energy.render_j
            ) + self.energy.base_j
            radio_tier = self.tier if self.tier in TIER_NAMES else "device"
            energy[radio_tier] += self.energy.radio_j
        return {
            name: {"latency_s": latency[name], "energy_j": energy[name]}
            for name in TIER_NAMES
        }


@dataclass(frozen=True)
class Overloaded:
    """Typed shed response: the server refused the request at admission.

    Reasons:
        ``"device-queue-full"`` — the per-device bounded queue was full;
        ``"server-busy"`` — the global in-flight cap was reached;
        ``"edge-queue-full"`` — the owning cloudlet node's in-flight
        bound was reached (shed mid-flight, on the edge hop);
        ``"server-closed"`` — the server closed while the admitted
        request was queued or in service.
    """

    request: ServeRequest
    reason: str
    t: float
    #: trace of the rejected request (one ``shed`` segment)
    trace: Optional[TraceContext] = field(default=None, compare=False)

    ok = False

    @property
    def trace_id(self) -> Optional[int]:
        return self.trace.trace_id if self.trace is not None else None


#: What a submitted request resolves to.
ServeReply = Union[ServeResponse, Overloaded]
