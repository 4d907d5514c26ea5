"""The cooperative edge-cloudlet tier: topology, routing, peer fetch.

The fetch chain is *device personal cache -> owning cloudlet -> origin*.
The serve layer consults the tier only after a device-local **miss** —
a personal-cache hit never leaves the phone — and the tier then either
answers from the owning node's community slice (an *edge hit*: one
cheap cloudlet round trip instead of the full radio fetch) or fetches
from the origin through that node's single-flight
:class:`~repro.serve.batcher.MissBatcher` and admits the key on the way
back.

Two invariants the serve integration depends on:

* **The device outcome model is untouched.**  The tier never rewrites a
  :class:`~repro.sim.metrics.QueryOutcome`; it shapes the request's
  loop-clock sojourn, its trace marks (``edge_hop`` / ``edge_serve`` /
  ``batch_wait``), and its attributed radio energy.  That is what makes
  a 1-node unbounded tier reproduce the single-device ``serve_replay``
  community accounting bit-for-bit.
* **Marks telescope.**  Every await inside :meth:`EdgeTier.fetch` ends
  at a named mark, so the response breakdown still re-sums exactly to
  the end-to-end sojourn, now with the edge hops visible.

Timing goes through ``loop.time()`` / ``asyncio.sleep`` only, so the
tier runs identically under a stock loop and the
:class:`~repro.serve.vclock.VirtualTimeLoop`.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.edge.node import EdgeNode
from repro.edge.placement import assign_device_region
from repro.edge.propagation import OriginCoordinator
from repro.edge.ring import ConsistentHashRing
from repro.obs.trace import TraceContext
from repro.pocketsearch.manager import UpdatePatch

__all__ = ["EDGE_SHED_REASON", "EdgeFetchResult", "EdgeTier", "EdgeTopology"]

#: ``Overloaded.reason`` for sheds raised on the cloudlet hop, distinct
#: from the device-tier ``device-queue-full`` / ``server-busy`` reasons.
EDGE_SHED_REASON = "edge-queue-full"

_ROUTING_MODES = ("key", "home")


@dataclass(frozen=True)
class EdgeTopology:
    """Shape and cost model of the simulated cloudlet fleet.

    Args:
        n_nodes: cloudlet node count.
        node_capacity: community-slice bound per node in keys (``None``
            is unbounded — the 1-node equivalence configuration).
        vnodes: virtual points per node on the ownership ring.
        seed: root seed for per-node RNG streams and device placement.
        routing: ``"key"`` routes by consistent-hash ownership of the
            query key; ``"home"`` routes to the device's home-region
            node (placement skew then concentrates load).
        n_regions: geographic regions for device placement (defaults to
            ``n_nodes``).
        placement_skew: Zipf-like skew of device-to-region placement
            (0.0 uniform).
        edge_rtt_s: modelled device -> cloudlet round-trip seconds,
            paid on every edge consultation.
        edge_service_s: modelled cloudlet service seconds on an edge hit.
        edge_energy_scale: fraction of the isolated radio fetch energy a
            request pays when the owning cloudlet answers (a nearby
            low-power link instead of the full 3G flight).
        node_max_inflight: per-node concurrent-fetch bound; above it the
            hop sheds with :data:`EDGE_SHED_REASON` (``None`` disables).
        warm: whether harnesses should pre-seed node slices from the
            content scores before traffic.
        propagation_interval_s: target period between a node's
            popularity-delta flushes to the origin.
        propagation_batch: max deltas per flush.
        max_pending_deltas: per-node bound on buffered deltas.
    """

    n_nodes: int = 1
    node_capacity: Optional[int] = None
    vnodes: int = 64
    seed: int = 1009
    routing: str = "key"
    n_regions: Optional[int] = None
    placement_skew: float = 0.0
    edge_rtt_s: float = 0.02
    edge_service_s: float = 0.005
    edge_energy_scale: float = 0.15
    node_max_inflight: Optional[int] = None
    warm: bool = True
    propagation_interval_s: float = 300.0
    propagation_batch: int = 128
    max_pending_deltas: int = 4096

    def __post_init__(self) -> None:
        if self.n_nodes <= 0:
            raise ValueError("n_nodes must be positive")
        if self.node_capacity is not None and self.node_capacity <= 0:
            raise ValueError("node_capacity must be positive when bounded")
        if self.routing not in _ROUTING_MODES:
            raise ValueError(
                f"routing must be one of {_ROUTING_MODES}, got {self.routing!r}"
            )
        if self.n_regions is not None and self.n_regions <= 0:
            raise ValueError("n_regions must be positive when given")
        if self.placement_skew < 0:
            raise ValueError("placement_skew must be non-negative")
        if self.edge_rtt_s < 0 or self.edge_service_s < 0:
            raise ValueError("edge timings must be non-negative")
        if not 0.0 <= self.edge_energy_scale <= 1.0:
            raise ValueError("edge_energy_scale must be in [0, 1]")
        if self.node_max_inflight is not None and self.node_max_inflight <= 0:
            raise ValueError("node_max_inflight must be positive when bounded")
        if self.propagation_interval_s <= 0:
            raise ValueError("propagation_interval_s must be positive")
        if self.propagation_batch <= 0:
            raise ValueError("propagation_batch must be positive")


@dataclass(frozen=True)
class EdgeFetchResult:
    """What one edge consultation resolved to.

    ``tier`` names who answered: ``"edge"`` (the owning cloudlet's
    community slice) or ``"origin"`` (fetched through the node's
    single-flight batcher).  On a shed, only ``shed``/``reason``/
    ``node_id`` are meaningful.
    """

    node_id: int
    tier: str = "origin"
    shed: bool = False
    reason: str = ""
    #: origin fetch piggybacked on an in-flight identical fetch
    shared: bool = False
    #: attributed ``(ramp_j, transfer_j, tail_j)`` radio share
    share: Optional[Tuple[float, float, float]] = field(default=None)
    #: radio-timeline joules this request reports to the ledger
    timeline_j: float = 0.0


class EdgeTier:
    """N cloudlet nodes fronting the origin for a fleet of devices.

    Must be driven from a single event loop (same discipline as the
    server that owns it).
    """

    def __init__(self, topology: EdgeTopology = EdgeTopology()) -> None:
        # Imported lazily to break the serve <-> edge module cycle:
        # serve.harness imports this module at load time, so reaching
        # back into repro.serve here must wait until serve is complete.
        from repro.serve.batcher import MissBatcher

        self.topology = topology
        self.ring = ConsistentHashRing(
            range(topology.n_nodes), vnodes=topology.vnodes
        )
        self.nodes: Dict[int, EdgeNode] = {
            node_id: EdgeNode(
                node_id,
                capacity=topology.node_capacity,
                seed=topology.seed,
                max_pending_deltas=topology.max_pending_deltas,
            )
            for node_id in range(topology.n_nodes)
        }
        self.origin = OriginCoordinator()
        self._batchers = {
            node_id: MissBatcher() for node_id in range(topology.n_nodes)
        }
        self._device_regions: Dict[int, int] = {}
        self.sheds = 0
        #: the last :meth:`stats` snapshot, dropped whenever a fetch, shed,
        #: flush or slice seeding moves a counter
        self._stats: Optional[Dict[str, object]] = None
        #: each node's row of that snapshot, and the nodes whose
        #: counters moved since (rebuilt with the next snapshot)
        self._node_ids = sorted(self.nodes)
        self._node_rows: Dict[int, Dict[str, float]] = {}
        self._moved = set(self._node_ids)
        #: called as ``fn(t, node_id, n_deltas)`` after each propagation
        #: flush — the flight recorder hangs off this.
        self.on_flush: Optional[Callable[[float, int, int], None]] = None

    # -- routing -------------------------------------------------------------

    @property
    def n_regions(self) -> int:
        return (
            self.topology.n_regions
            if self.topology.n_regions is not None
            else self.topology.n_nodes
        )

    def device_region(self, device_id: int) -> int:
        """The device's home region (memoized deterministic placement)."""
        region = self._device_regions.get(device_id)
        if region is None:
            region = assign_device_region(
                device_id,
                self.n_regions,
                skew=self.topology.placement_skew,
                seed=self.topology.seed,
            )
            self._device_regions[device_id] = region
        return region

    def node_for(self, key: str, device_id: int) -> int:
        """The node a device's request for ``key`` is routed to."""
        if self.topology.routing == "key":
            return self.ring.owner(key)
        return self.device_region(device_id) % self.topology.n_nodes

    # -- the peer-fetch protocol --------------------------------------------

    async def fetch(
        self,
        key: str,
        device_id: int,
        radio_s: float,
        scale: float,
        trace: Optional[TraceContext] = None,
        radio_energy: Optional[Tuple[float, float, float]] = None,
    ) -> EdgeFetchResult:
        """Resolve one device-local miss through the cloudlet tier.

        ``radio_s`` / ``radio_energy`` describe the *origin* fetch the
        device would have performed in isolation; ``scale`` is the
        server's model-seconds -> loop-seconds multiplier.
        """
        loop = asyncio.get_event_loop()
        node = self.nodes[self.node_for(key, device_id)]
        bound = self.topology.node_max_inflight
        if bound is not None and node.inflight >= bound:
            node.sheds += 1
            self.sheds += 1
            self._node_moved(node.node_id)
            if trace is not None:
                trace.annotate(edge_node=node.node_id)
            return EdgeFetchResult(
                node_id=node.node_id, shed=True, reason=EDGE_SHED_REASON
            )
        node.inflight += 1
        self._node_moved(node.node_id)
        try:
            rtt = self.topology.edge_rtt_s * scale
            if rtt > 0:
                await asyncio.sleep(rtt)
            if trace is not None:
                trace.mark("edge_hop", loop.time())
            hit = node.lookup(key)
            node.record_delta(key)
            # Also covers the batcher's fetch counters, which move before
            # its first await.
            self._node_moved(node.node_id)
            if hit:
                service = self.topology.edge_service_s * scale
                if service > 0:
                    await asyncio.sleep(service)
                if trace is not None:
                    trace.mark("edge_serve", loop.time())
                    trace.annotate(edge_node=node.node_id, edge_hit=True)
                share: Optional[Tuple[float, float, float]] = None
                timeline_j = 0.0
                if radio_energy is not None:
                    k = self.topology.edge_energy_scale
                    share = (
                        radio_energy[0] * k,
                        radio_energy[1] * k,
                        radio_energy[2] * k,
                    )
                    timeline_j = (share[0] + share[1]) + share[2]
                result = EdgeFetchResult(
                    node_id=node.node_id,
                    tier="edge",
                    share=share,
                    timeline_j=timeline_j,
                )
            else:
                # Origin fetch through this node's single-flight
                # batcher: identical concurrent misses routed here ride
                # one simulated radio round trip.
                fetch_share = await self._batchers[node.node_id].fetch_shared(
                    key, radio_s * scale, trace=trace, radio_energy=radio_energy
                )
                if trace is not None:
                    trace.mark("batch_wait", loop.time())
                    trace.annotate(edge_node=node.node_id, edge_hit=False)
                node.admit(key)
                result = EdgeFetchResult(
                    node_id=node.node_id,
                    tier="origin",
                    shared=fetch_share.shared,
                    share=fetch_share.share,
                    timeline_j=fetch_share.timeline_j,
                )
        finally:
            node.inflight -= 1
            # Also covers the admission above and the flush below.
            self._node_moved(node.node_id)
        self._maybe_flush(node, loop.time())
        return result

    # -- popularity propagation ---------------------------------------------

    def _maybe_flush(self, node: EdgeNode, now: float) -> None:
        """Event-driven propagation: flush when the node's jittered
        deadline has passed.  No background task — nothing to leak or
        cancel, and the virtual clock only advances through sleeps the
        requests themselves perform."""
        interval = self.topology.propagation_interval_s
        if node.next_flush_at is None:
            node.next_flush_at = now + interval * (0.5 + node.flush_jitter)
            return
        if now < node.next_flush_at or node.pending_deltas == 0:
            return
        deltas = node.take_deltas(self.topology.propagation_batch)
        self.origin.apply_deltas(node.node_id, deltas)
        node.next_flush_at = now + interval
        if self.on_flush is not None:
            self.on_flush(now, node.node_id, len(deltas))

    def flush_all(self) -> None:
        """Propagate every pending delta (end-of-run settlement)."""
        self._all_moved()
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            while node.pending_deltas:
                deltas = node.take_deltas(self.topology.propagation_batch)
                self.origin.apply_deltas(node_id, deltas)

    def refresh_from_origin(self, per_node: int) -> UpdatePatch:
        """Push the origin's merged top keys back into node slices (the
        eventual community refresh), accounted as one ``UpdatePatch``."""
        if per_node <= 0:
            raise ValueError("per_node must be positive")
        self._all_moved()
        top = self.origin.top_keys(per_node * len(self.nodes))
        pushed = 0
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            if self.topology.routing == "key":
                keys = [k for k in top if self.ring.owner(k) == node_id]
                keys = keys[:per_node]
            else:
                keys = top[:per_node]
            # Admit coldest-first so the hottest key ends up MRU.
            node.seed_slice(reversed(keys))
            pushed += len(keys)
        return self.origin.refresh_patch(pushed)

    # -- warm seeding --------------------------------------------------------

    def seed_from_scores(self, scored_keys: Iterable[Tuple[str, float]]) -> int:
        """Warm node slices from ``(key, score)`` content rankings.

        Keys are admitted in ascending score order (hottest last ->
        most-recently-used), and under bounded capacity the retained
        sets are nested across capacities — the property the offline
        monotonicity sweep relies on.  Under ``"key"`` routing each key
        warms only its owning node; under ``"home"`` routing every node
        replicates the ranking (any node may be asked for any key).
        """
        ordered = sorted(scored_keys, key=lambda kv: (kv[1], kv[0]))
        self._all_moved()
        seeded = 0
        for key, _ in ordered:
            if self.topology.routing == "key":
                self.nodes[self.ring.owner(key)].admit(key)
                seeded += 1
            else:
                for node_id in sorted(self.nodes):
                    self.nodes[node_id].admit(key)
                    seeded += 1
        return seeded

    # -- introspection -------------------------------------------------------

    @property
    def community_hits(self) -> int:
        return sum(self.nodes[i].hits for i in sorted(self.nodes))

    @property
    def community_misses(self) -> int:
        return sum(self.nodes[i].misses for i in sorted(self.nodes))

    @property
    def community_hit_rate(self) -> float:
        """Fraction of device-local misses the cloudlet tier absorbed."""
        probes = self.community_hits + self.community_misses
        return self.community_hits / probes if probes else 0.0

    @property
    def origin_fetches(self) -> int:
        return sum(self._batchers[i].fetches for i in sorted(self._batchers))

    @property
    def origin_piggybacked(self) -> int:
        return sum(
            self._batchers[i].piggybacked for i in sorted(self._batchers)
        )

    def stats(self) -> Dict[str, object]:
        """Fleet totals and per-node rows.

        The snapshot is rebuilt only after the tier's own fetches, sheds,
        flushes or slice seeding have moved a counter; between those the
        same (read-only) dict is returned.  A rebuild makes new dicts
        (earlier snapshots never change) but rebuilds only the rows of
        nodes whose counters moved; the rows of the others are shared.
        Code that drives nodes directly reads their ``stats()`` instead.
        """
        if self._stats is None:
            rows = self._node_rows
            for node_id in self._moved:
                rows[node_id] = self.nodes[node_id].stats()
            self._moved.clear()
            hits = self.community_hits
            misses = self.community_misses
            probes = hits + misses
            self._stats = {
                "n_nodes": self.topology.n_nodes,
                "routing": self.topology.routing,
                "community_hits": hits,
                "community_misses": misses,
                "community_hit_rate": hits / probes if probes else 0.0,
                "origin_fetches": self.origin_fetches,
                "origin_piggybacked": self.origin_piggybacked,
                "sheds": self.sheds,
                "origin": self.origin.stats(),
                "nodes": [rows[i] for i in self._node_ids],
            }
        return self._stats

    def _node_moved(self, node_id: int) -> None:
        """Drop the snapshot: a counter of ``node_id`` moved."""
        self._stats = None
        self._moved.add(node_id)

    def _all_moved(self) -> None:
        """Drop the snapshot and every node's row."""
        self._stats = None
        self._moved.update(self._node_ids)
