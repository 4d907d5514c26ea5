"""Device backends: the serve layer's view of a cloudlet.

A backend answers one :class:`~repro.serve.requests.ServeRequest`
synchronously with a :class:`BackendResult` — the modelled
:class:`~repro.sim.metrics.QueryOutcome` plus how much of its latency is
radio time (the portion a concurrent identical miss can share through
:class:`~repro.serve.batcher.MissBatcher`).

Backends wrap the existing offline models without changing them:

* :class:`SearchBackend` — one
  :class:`~repro.pocketsearch.engine.PocketSearchEngine` (one phone);
* :class:`DailyUpdateBackend` — decorator applying the Section 6.2.2
  nightly community refresh at the same event boundaries as the replay
  harness, so serve-vs-replay equivalence holds with updates on;
* :class:`WebBackend` — a :class:`~repro.pocketweb.cloudlet.PocketWebCloudlet`
  phone, demonstrating the protocol generalises beyond search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Protocol, runtime_checkable

from repro.obs.energy import EnergyBreakdown
from repro.pocketsearch.content import CacheContent
from repro.pocketsearch.engine import PocketSearchEngine
from repro.pocketsearch.manager import CacheUpdateServer
from repro.sim.metrics import QueryOutcome, ServiceSource
from repro.sim.replay import DAY_SECONDS
from repro.serve.requests import ServeRequest

__all__ = [
    "BackendError",
    "BackendResult",
    "DeviceBackend",
    "SearchBackend",
    "DailyUpdateBackend",
    "WebBackend",
]


class BackendError(Exception):
    """A device backend raised while serving ``request``.

    The server resolves that request's future with this error, chained
    to the backend's exception (``__cause__``), and the device's session
    serves its later requests.
    """

    def __init__(self, request: ServeRequest) -> None:
        super().__init__(request)
        self.request = request

    def __str__(self) -> str:
        return (
            f"device {self.request.device_id}'s backend failed on "
            f"{self.request.key!r}"
        )


@dataclass(frozen=True)
class BackendResult:
    """One answered request: the outcome plus its shareable radio time."""

    outcome: QueryOutcome
    #: Radio round-trip seconds within ``outcome.latency_s`` (0.0 on hits).
    radio_s: float = 0.0
    #: Backend facts worth carrying into the request's trace (e.g. how
    #: many pending nightly refreshes were applied before serving).
    annotations: Dict[str, Any] = field(default_factory=dict)
    #: Per-component energy of this request served in isolation; the
    #: server re-attributes the radio components when misses batch.
    energy: Optional[EnergyBreakdown] = None


@runtime_checkable
class DeviceBackend(Protocol):
    """One device's service path, as the server drives it.

    ``serve`` is synchronous model code: it computes costs and mutates
    per-device cache state but never blocks; the server turns the
    returned latencies into loop-clock sleeps.
    """

    def serve(self, request: ServeRequest) -> BackendResult:
        ...


class SearchBackend:
    """A PocketSearch phone behind the backend protocol."""

    def __init__(self, engine: PocketSearchEngine) -> None:
        self.engine = engine

    def serve(self, request: ServeRequest) -> BackendResult:
        result = self.engine.serve_query(
            query=request.key,
            clicked_url=request.clicked_url,
            record_bytes=request.record_bytes,
            navigational=request.navigational,
            timestamp=request.timestamp,
        )
        return BackendResult(
            outcome=result.outcome,
            radio_s=result.breakdown.get("radio_s", 0.0),
            energy=result.energy,
        )


class DailyUpdateBackend:
    """Apply nightly community refreshes at replay-equivalent points.

    The offline harness (:func:`repro.sim.replay.replay_user`) refreshes
    the community component just before serving the first event of each new
    replay day.  A purely time-driven background task could fire while a
    session still has yesterday's backlog queued, diverging from the
    replay ordering; anchoring the refresh to the *event's* day keeps the
    per-user state machine identical under any queueing.
    """

    def __init__(
        self,
        inner: SearchBackend,
        daily_contents: List[CacheContent],
        t_start: float,
        update_server: Optional[CacheUpdateServer] = None,
    ) -> None:
        self.inner = inner
        self.daily_contents = daily_contents
        self.t_start = t_start
        self.update_server = update_server or CacheUpdateServer()
        self._day = 0

    def serve(self, request: ServeRequest) -> BackendResult:
        applied = 0
        if self.daily_contents:
            event_day = min(
                int((request.timestamp - self.t_start) // DAY_SECONDS),
                len(self.daily_contents) - 1,
            )
            while self._day <= event_day:
                self.update_server.refresh_with_content(
                    self.inner.engine.cache, self.daily_contents[self._day]
                )
                self._day += 1
                applied += 1
        result = self.inner.serve(request)
        if applied:
            # Surface in the trace which requests paid for catch-up
            # refreshes — they are this backend's latency outliers.
            return BackendResult(
                outcome=result.outcome,
                radio_s=result.radio_s,
                annotations=dict(
                    result.annotations, refreshes_applied=applied
                ),
                energy=result.energy,
            )
        return result


class WebBackend:
    """A PocketWeb phone: ``request.key`` is the URL being visited."""

    def __init__(self, cloudlet) -> None:
        self.cloudlet = cloudlet

    def serve(self, request: ServeRequest) -> BackendResult:
        browse = self.cloudlet.browse(request.key, request.timestamp)
        outcome = QueryOutcome(
            query=request.key,
            hit=browse.hit,
            source=(
                ServiceSource.CACHE
                if browse.hit
                else ServiceSource.RADIO_3G
            ),
            latency_s=browse.latency_s,
            energy_j=browse.energy_j,
            timestamp=request.timestamp,
        )
        # Any path that moved bytes over the radio can share its fetch;
        # approximate the shareable window with the full visit latency.
        radio_s = browse.latency_s if browse.bytes_over_radio else 0.0
        return BackendResult(
            outcome=outcome, radio_s=radio_s, energy=browse.energy_breakdown
        )
