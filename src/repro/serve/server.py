"""The asyncio cloudlet server: sessions and admission control.

One :class:`CloudletServer` fronts many devices.  Each device gets a
*session* — a bounded FIFO queue plus a worker task that drives that
device's backend strictly in submission order (a phone answers its own
user's queries one at a time; cross-device requests interleave freely).

Admission control is shed-on-overload, never queue-without-bound:

* a full per-device queue rejects with ``Overloaded("device-queue-full")``;
* a server-wide in-flight cap rejects with ``Overloaded("server-busy")``;
* :meth:`CloudletServer.close` resolves every admitted request still
  queued or in service with ``Overloaded("server-closed")``, so no
  client waits on a closed server.

A rejected request costs O(1) work and resolves immediately with the
typed shed response, so an overloaded server stays responsive and its
memory stays bounded no matter the offered load.

A backend that raises fails only the request it was serving: that
request's future raises :class:`~repro.serve.backends.BackendError`
(chained to the backend's exception) and the session goes on with the
device's next request.  The server keeps a count of admitted requests in
flight, not a set of their futures; :meth:`CloudletServer.drain` waits
for that count to reach zero.

Cache misses go through the shared :class:`~repro.serve.batcher.MissBatcher`
so concurrent identical fetches ride one simulated radio round trip.
Cache updates are the backend's business: a
:class:`~repro.serve.backends.DailyUpdateBackend` refreshes its cache
between requests, on the device's own worker.

The server never reads wall clocks directly — all timing goes through
``loop.time()`` and ``asyncio.sleep`` — so the same code runs under a
stock loop (real time) or a :class:`~repro.serve.vclock.VirtualTimeLoop`
(deterministic simulated time).
"""

from __future__ import annotations

import asyncio
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.obs.energy import EnergyBreakdown
from repro.obs.registry import MetricsRegistry, get_registry
from repro.obs.trace import TraceContext, get_tracer
from repro.serve.backends import BackendError, DeviceBackend
from repro.serve.batcher import MissBatcher
from repro.serve.requests import Overloaded, ServeRequest, ServeResponse
from repro.serve.telemetry import ServeTelemetry

__all__ = ["CloudletServer", "ServeConfig"]


@dataclass(frozen=True)
class ServeConfig:
    """Serving-layer knobs (the model itself is the backend's business).

    Args:
        queue_depth: per-device queue bound; the device sheds above it.
        max_inflight: server-wide cap on admitted-but-unfinished
            requests across all devices.
        time_scale: multiplier from modelled seconds to loop-clock
            seconds.  1.0 under the virtual loop replays model time
            exactly; small values make wall-clock demos brisk; 0.0
            serves with no sleeps at all (pure throughput mode).
    """

    queue_depth: int = 32
    max_inflight: int = 4096
    time_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.queue_depth <= 0:
            raise ValueError("queue_depth must be positive")
        if self.max_inflight <= 0:
            raise ValueError("max_inflight must be positive")
        if self.time_scale < 0:
            raise ValueError("time_scale must be non-negative")


class _DeviceSession:
    """One device's bounded queue, backend, and worker task."""

    __slots__ = ("device_id", "backend", "queue", "worker", "current")

    def __init__(
        self, device_id: int, backend: DeviceBackend, queue_depth: int
    ) -> None:
        self.device_id = device_id
        self.backend = backend
        self.queue: "asyncio.Queue" = asyncio.Queue(maxsize=queue_depth)
        self.worker: Optional["asyncio.Task"] = None
        #: the (request, future, trace) in service, until it is released
        self.current: Optional[tuple] = None


class CloudletServer:
    """Serve requests from many devices over their per-device backends.

    Args:
        backend_factory: ``device_id -> DeviceBackend``; called once per
            device on first contact (each phone gets its own cache).
        config: serving-layer parameters.
        registry: metrics sink (defaults to the process registry).  Each
            ``serve.*`` instrument is looked up once, when first used, and
            the server keeps the handle.
        telemetry: windowed telemetry plane; a default
            :class:`~repro.serve.telemetry.ServeTelemetry` is created
            when not given, so every server is observable out of the box.
        edge: optional cooperative cloudlet tier (an
            :class:`~repro.edge.tier.EdgeTier`-shaped object).  When
            set, device-local misses are resolved through it — edge
            community hit or batched origin fetch — instead of the
            server's own miss batcher, and an over-committed cloudlet
            node sheds the request mid-flight with
            ``Overloaded("edge-queue-full")``.  Duck-typed so the serve
            layer never imports :mod:`repro.edge`.

    All methods must be called from the event loop the server runs on.
    """

    def __init__(
        self,
        backend_factory: Callable[[int], DeviceBackend],
        config: ServeConfig = ServeConfig(),
        registry: Optional[MetricsRegistry] = None,
        telemetry: Optional[ServeTelemetry] = None,
        edge=None,
    ) -> None:
        self.backend_factory = backend_factory
        self.config = config
        self.registry = registry if registry is not None else get_registry()
        self._handles: Dict[str, Any] = {}
        self.batcher = MissBatcher()
        self.edge = edge
        self.telemetry = telemetry if telemetry is not None else ServeTelemetry()
        if edge is not None:
            self.telemetry.edge_stats_fn = edge.stats
            flight = getattr(self.telemetry, "flight", None)
            if flight is not None:
                flight.observe_edge(edge)
        # Per-server trace ids: a plain counter is deterministic under
        # the virtual clock (no randomness, no wall time).
        self._trace_ids = itertools.count(1)
        self._sessions: Dict[int, _DeviceSession] = {}
        self._inflight = 0
        #: resolved when the in-flight count next reaches zero (created
        #: by the first :meth:`drain` that has to wait)
        self._idle: Optional["asyncio.Future"] = None
        self._closed = False

    # -- lifecycle ----------------------------------------------------------

    async def drain(self) -> None:
        """Wait until every admitted request has completed.

        Returns at once when nothing is in flight.  Otherwise every
        waiting drain shares one future, resolved when the in-flight
        count reaches zero; each waits through a shield, so cancelling
        one drain leaves the others waiting.
        """
        if self._inflight:
            if self._idle is None:
                self._idle = asyncio.get_running_loop().create_future()
            await asyncio.shield(self._idle)

    def _release(self) -> None:
        """One admitted request left flight (completed, shed on the edge
        hop or failed); wake the drains when none remain."""
        self._inflight -= 1
        if not self._inflight and self._idle is not None:
            idle, self._idle = self._idle, None
            idle.set_result(None)

    async def close(self) -> None:
        """Cancel the workers, then shed every admitted request still in
        service or queued with ``Overloaded("server-closed")``.

        Each counts once as a shed after admission and leaves flight, so
        waiting drains wake.  A request cancelled inside the edge hop or
        the miss batcher resolves the same way; both release their own
        state when cancelled.
        """
        self._closed = True
        tasks = [s.worker for s in self._sessions.values() if s.worker]
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        now = asyncio.get_running_loop().time()
        for session in self._sessions.values():
            pending = [session.current] if session.current else []
            session.current = None
            while not session.queue.empty():
                pending.append(session.queue.get_nowait())
            for request, future, trace in pending:
                self._release()
                self._shed(
                    future, request, "server-closed", now, trace,
                    admitted=True,
                )

    # -- request path -------------------------------------------------------

    def ensure_session(self, device_id: int) -> _DeviceSession:
        """The device's session, creating backend + worker on first use."""
        session = self._sessions.get(device_id)
        if session is None:
            session = _DeviceSession(
                device_id,
                self.backend_factory(device_id),
                self.config.queue_depth,
            )
            loop = asyncio.get_running_loop()
            session.worker = loop.create_task(self._run_session(session))
            self._sessions[device_id] = session
        return session

    def submit(self, request: ServeRequest) -> "asyncio.Future":
        """Admit or shed ``request``; resolves to a ``ServeReply``.

        Open-loop safe: returns immediately in both cases.  Shed
        requests resolve synchronously with a typed
        :class:`~repro.serve.requests.Overloaded`; admitted requests
        resolve when their device's worker completes them.
        """
        if self._closed:
            raise RuntimeError("server is closed")
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        now = loop.time()
        trace = TraceContext(next(self._trace_ids), now)
        self._metric("counter", "serve.requests").inc()
        if self._inflight >= self.config.max_inflight:
            self._shed(future, request, "server-busy", now, trace)
            return future
        session = self.ensure_session(request.device_id)
        try:
            session.queue.put_nowait((request, future, trace))
        except asyncio.QueueFull:
            self._shed(future, request, "device-queue-full", now, trace)
            return future
        self._inflight += 1
        self._metric("counter", "serve.admitted").inc()
        self._metric("gauge", "serve.inflight_peak").max(self._inflight)
        self.telemetry.on_submit(now, self._inflight)
        return future

    def _shed(
        self,
        future,
        request,
        reason: str,
        now: float,
        trace: TraceContext,
        admitted: bool = False,
    ) -> None:
        """Resolve ``future`` with a typed shed; ``admitted`` marks a
        request shed after admission (the edge hop)."""
        self._metric("counter", "serve.shed").inc()
        self._metric(
            "counter", "serve.shed." + reason.replace("-", "_")
        ).inc()
        trace.mark("shed", now)
        trace.annotate(shed_reason=reason)
        reply = Overloaded(request=request, reason=reason, t=now, trace=trace)
        self.telemetry.on_shed(now, reply, admitted=admitted)
        if not future.done():
            future.set_result(reply)

    # -- workers ------------------------------------------------------------

    async def _run_session(self, session: _DeviceSession) -> None:
        loop = asyncio.get_running_loop()
        tracer = get_tracer()
        scale = self.config.time_scale
        while True:
            item = await session.queue.get()
            session.current = item
            request, future, trace = item
            enqueued_at = trace.marks[0][1]
            started_at = loop.time()
            trace.mark("queue_wait", started_at)
            try:
                with tracer.span(
                    "serve_request",
                    device_id=session.device_id,
                    key=request.key,
                    trace_id=trace.trace_id,
                ):
                    try:
                        result = session.backend.serve(request)
                    except Exception as exc:
                        raise BackendError(request) from exc
            except BackendError as exc:
                # The request raises it; the session serves on.
                self._metric("counter", "serve.errors").inc()
                session.current = None
                self._release()
                if not future.done():
                    future.set_exception(exc)
                session.queue.task_done()
                continue
            # The trace format keeps a refresh_blocked segment between
            # dequeue and service.  No task holds the session, and the
            # backend is sync model code, so it spans zero loop time.
            trace.mark("refresh_blocked", loop.time())
            if result.annotations:
                trace.annotate(**result.annotations)
            outcome = result.outcome
            shared = False
            energy: Optional[EnergyBreakdown] = result.energy
            # Default (solo/hit) attribution: the request pays for its
            # own isolated radio timeline.
            radio_timeline_j = energy.radio_j if energy is not None else 0.0
            tier = "device" if outcome.hit else "origin"
            edge_node: Optional[int] = None
            if not outcome.hit and result.radio_s > 0:
                radio_energy = (
                    (energy.ramp_j, energy.transfer_j, energy.tail_j)
                    if energy is not None
                    else None
                )
                if self.edge is not None:
                    # Peer-fetch chain: the owning cloudlet node either
                    # answers from its community slice or fetches from
                    # the origin through its single-flight batcher.
                    edge_result = await self.edge.fetch(
                        request.key,
                        session.device_id,
                        result.radio_s,
                        scale,
                        trace=trace,
                        radio_energy=radio_energy,
                    )
                    if edge_result.shed:
                        # The cloudlet refused the fetch mid-flight.
                        # The device-side model state already advanced
                        # (the backend served the local miss); the shed
                        # accounts the refused community fetch.
                        session.current = None
                        self._release()
                        self._shed(
                            future,
                            request,
                            edge_result.reason,
                            loop.time(),
                            trace,
                            admitted=True,
                        )
                        session.queue.task_done()
                        continue
                    shared = edge_result.shared
                    tier = edge_result.tier
                    edge_node = edge_result.node_id
                    if energy is not None and edge_result.share is not None:
                        energy = energy.with_radio(*edge_result.share)
                        radio_timeline_j = edge_result.timeline_j
                else:
                    # Occupy the shared radio for the fetch; identical
                    # concurrent misses piggyback on one round trip.
                    fetch_share = await self.batcher.fetch_shared(
                        request.key,
                        result.radio_s * scale,
                        trace=trace,
                        radio_energy=radio_energy,
                    )
                    shared = fetch_share.shared
                    if energy is not None and fetch_share.share is not None:
                        # Re-attribute the flight's wake/tail across its
                        # participants; the leader reports the full
                        # timeline spend, riders report none (the
                        # ledger's invariant).
                        energy = energy.with_radio(*fetch_share.share)
                        radio_timeline_j = fetch_share.timeline_j
                    # A rider whose leader carried no energy components
                    # keeps its isolated breakdown and accounts as a
                    # solo fetch — self-consistent, if pessimistic.
                    trace.mark("batch_wait", loop.time())
                local_s = (outcome.latency_s - result.radio_s) * scale
                if local_s > 0:
                    await asyncio.sleep(local_s)
            elif outcome.latency_s * scale > 0:
                await asyncio.sleep(outcome.latency_s * scale)
            completed_at = loop.time()
            trace.mark("service", completed_at)
            if energy is not None:
                trace.energy = energy
            response = ServeResponse(
                request=request,
                outcome=outcome,
                enqueued_at=enqueued_at,
                started_at=started_at,
                completed_at=completed_at,
                shared_fetch=shared,
                trace=trace,
                energy=energy,
                radio_timeline_j=radio_timeline_j,
                tier=tier,
                edge_node=edge_node,
            )
            self._record(response)
            session.current = None
            self._release()
            self.telemetry.on_response(completed_at, response, self._inflight)
            if not future.done():
                future.set_result(response)
            session.queue.task_done()

    def _metric(self, kind: str, name: str):
        """The registry's ``kind`` instrument ``name`` (``"counter"``,
        ``"gauge"`` or ``"histogram"``).  Created in the registry on first
        use, as a direct registry call would; the handle is kept, so the
        request path makes no locked registry lookup."""
        handle = self._handles.get(name)
        if handle is None:
            handle = getattr(self.registry, kind)(name)
            self._handles[name] = handle
        return handle

    def _record(self, response: ServeResponse) -> None:
        metric = self._metric
        metric("counter", "serve.completed").inc()
        if response.outcome.hit:
            metric("counter", "serve.hits").inc()
        else:
            metric("counter", "serve.misses").inc()
        if response.shared_fetch:
            metric("counter", "serve.shared_fetches").inc()
        metric("counter", "serve.tier." + response.tier).inc()
        metric("histogram", "serve.queue_wait_s").add(response.queue_wait_s)
        metric("histogram", "serve.sojourn_s").add(response.sojourn_s)
        if response.energy is not None:
            metric("histogram", "serve.energy_j").add(response.energy_j)

    # -- introspection ------------------------------------------------------

    @property
    def inflight(self) -> int:
        return self._inflight
