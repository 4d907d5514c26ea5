"""Windowed time-series: one fixed-width bucket ring behind every window.

The registry's instruments (:mod:`repro.obs.registry`) answer "what
happened since the process started".  Serving needs the other question —
"what is happening *now*": rolling hit rate over the last minute, p99
over the last 10 seconds, the in-flight high-watermark per second.  One
mechanism answers it:

* time is divided into fixed-width buckets (``bucket index =
  floor(t / width)``);
* a :class:`BucketRing` keeps the newest ``n_buckets`` buckets, one
  aggregate per slot — observing into a bucket the ring has rotated past
  resets that slot;
* queries are evaluated *at* a caller-supplied time ``t`` and cover the
  window ``(t - n_buckets * width, t]``.

Nothing here reads a wall clock: every observation and every query takes
an explicit timestamp, which the serving layer feeds from ``loop.time()``.
Under :class:`~repro.serve.vclock.VirtualTimeLoop` the timestamps are
simulated seconds, so two runs of the same workload produce identical
bucket contents — windowed telemetry is as deterministic as the replay
itself.

The serve telemetry plane reduces every completed request once, to a
:class:`RequestRecord`, and folds it into one :class:`ServeBucket` per
bucket: request/shed counts, per-series samples (sojourn, queue wait,
batch wait, service, edge hop, joules), energy by source, and the
bucket's slowest requests.  The rolling view, the per-bucket rows, the
energy windows and the flight recorder's bucket rows all read that one
ring; the SLO rule tallies are a ring of their own.
"""

from __future__ import annotations

import math
import random
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.obs.registry import nearest_rank

__all__ = [
    "BUCKET_RESERVOIR",
    "BucketRing",
    "EXEMPLAR_K",
    "RequestRecord",
    "ServeBucket",
    "slowest",
    "window_count",
    "window_mean",
    "window_quantile",
]

#: Per-bucket sample size of each series: buckets are short, so a small
#: sample keeps the ring cheap while window quantiles pool across buckets.
BUCKET_RESERVOIR = 256

#: Slowest requests each bucket keeps as exemplars.
EXEMPLAR_K = 5


class BucketRing:
    """Ring of ``n_buckets`` fixed-width buckets addressed by timestamp.

    Each slot holds one aggregate created by ``factory``.  A slot is
    recycled (re-created) whenever a newer bucket index claims it, so a
    ring never holds data older than the window.
    """

    __slots__ = ("width_s", "n_buckets", "_index", "_slots", "_factory")

    def __init__(
        self, width_s: float, n_buckets: int, factory: Callable[[], Any]
    ) -> None:
        if width_s <= 0:
            raise ValueError(f"width_s must be positive, got {width_s}")
        if n_buckets <= 0:
            raise ValueError(f"n_buckets must be positive, got {n_buckets}")
        self.width_s = width_s
        self.n_buckets = n_buckets
        self._index: List[Optional[int]] = [None] * n_buckets
        self._slots: List[Any] = [None] * n_buckets
        self._factory = factory

    @property
    def window_s(self) -> float:
        return self.width_s * self.n_buckets

    def at(self, t: float) -> Any:
        """The live aggregate for time ``t``, resetting a stale slot."""
        idx = int(math.floor(t / self.width_s))
        slot = idx % self.n_buckets
        if self._index[slot] != idx:
            self._index[slot] = idx
            self._slots[slot] = self._factory()
        return self._slots[slot]

    def get(self, idx: int) -> Optional[Any]:
        """Bucket ``idx``'s aggregate, or None once its slot moved on."""
        slot = idx % self.n_buckets
        return self._slots[slot] if self._index[slot] == idx else None

    def live(self, t: float, n: Optional[int] = None) -> List[Tuple[int, Any]]:
        """``(bucket_index, aggregate)`` for the newest ``n`` buckets
        (default: the whole window) at ``t``, oldest first.  Buckets
        never observed are absent."""
        newest = int(math.floor(t / self.width_s))
        span = self.n_buckets if n is None else min(n, self.n_buckets)
        out: List[Tuple[int, Any]] = []
        for idx in range(newest - span + 1, newest + 1):
            slot = idx % self.n_buckets
            if self._index[slot] == idx:
                out.append((idx, self._slots[slot]))
        return out


# -- per-bucket samples -------------------------------------------------------

#: Seed of a bucket sample's replacement draws.  A series seeds its
#: generator only once it passes :data:`BUCKET_RESERVOIR` values, so
#: buckets that never fill their sample allocate none.
_SAMPLE_SEED = 0x5EED


class _Series:
    """One series within one bucket: count, sum, exact extremes, and a
    uniform sample of at most :data:`BUCKET_RESERVOIR` values
    (algorithm R)."""

    __slots__ = ("count", "total", "min", "max", "kept", "_rng")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.kept: List[float] = []
        self._rng: Optional[random.Random] = None

    def add(self, x: float) -> None:
        self.count += 1
        self.total += x
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x
        if self.count <= BUCKET_RESERVOIR:
            self.kept.append(x)
        else:
            if self._rng is None:
                self._rng = random.Random(_SAMPLE_SEED)
            j = self._rng.randrange(self.count)
            if j < BUCKET_RESERVOIR:
                self.kept[j] = x

    def quantile(self, q: float) -> float:
        """Nearest-rank over this bucket's sample (non-empty series)."""
        return nearest_rank(sorted(self.kept), q)


#: The one series every :class:`ServeBucket` field points at until its
#: first value: it reads as empty, and is never added to.
_EMPTY_SERIES = _Series()


def window_quantile(series: Iterable[_Series], q: float) -> float:
    """Percentile ``q`` of one series over a window's buckets.

    Exact at the extremes (tracked min/max); nearest-rank over the
    pooled per-bucket samples in between.  ``nan`` when empty.
    """
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    live = [s for s in series if s.count]
    if not live:
        return float("nan")
    if q == 0:
        return min(s.min for s in live)
    if q == 100:
        return max(s.max for s in live)
    return nearest_rank(sorted(x for s in live for x in s.kept), q)


def window_mean(series: Iterable[_Series]) -> float:
    """Mean of one series over a window's buckets (``nan`` when empty)."""
    live = [s for s in series if s.count]
    if not live:
        return float("nan")
    return sum(s.total for s in live) / sum(s.count for s in live)


def window_count(counts: Iterable[int]) -> Any:
    """A window total of per-bucket event counts, as a float.

    Buckets that never saw the series add nothing, so a window without
    one reports int ``0``, not ``0.0``, in the snapshot JSON.
    """
    seen = [c for c in counts if c]
    return float(sum(seen)) if seen else 0


# -- the per-request record ---------------------------------------------------


class RequestRecord:
    """One completed request, reduced once for every observer.

    Built from a finished :class:`~repro.serve.requests.ServeResponse`
    (duck-typed: this layer never imports the serve stack): one segment
    breakdown, the energy totals, and both re-sum errors — the segments
    against the sojourn, the energy components against the total.
    """

    __slots__ = (
        "request",
        "trace",
        "sojourn_s",
        "segments",
        "hit",
        "shared",
        "tier",
        "edge_node",
        "source",
        "energy_j",
        "radio_j",
        "timeline_j",
        "hop_err_s",
        "hop_err_j",
    )

    def __init__(self, response) -> None:
        self.request = response.request
        self.trace = response.trace
        self.sojourn_s = sojourn = response.sojourn_s
        self.segments = segments = response.breakdown()
        outcome = response.outcome
        self.hit = outcome.hit
        self.source = outcome.source.value
        self.shared = response.shared_fetch
        self.tier = response.tier
        self.edge_node = response.edge_node
        self.hop_err_s = abs(sum(segments.values()) - sojourn)
        energy = response.energy
        if energy is None:
            self.energy_j: Optional[float] = None
            self.radio_j = 0.0
            self.timeline_j = 0.0
            self.hop_err_j = 0.0
        else:
            self.energy_j = energy_j = energy.total_j
            self.radio_j = radio_j = energy.radio_j
            self.timeline_j = response.radio_timeline_j
            self.hop_err_j = abs(
                ((energy.storage_j + energy.render_j) + energy.base_j)
                + radio_j
                - energy_j
            )

    @property
    def trace_id(self) -> Optional[int]:
        return self.trace.trace_id if self.trace is not None else None

    def exemplar(self) -> Dict[str, Any]:
        """The full segment timeline plus request identity (requests
        with a trace only)."""
        payload = self.trace.to_dict()
        payload["device_id"] = self.request.device_id
        payload["key"] = self.request.key
        payload["hit"] = self.hit
        payload["tier"] = self.tier
        if self.edge_node is not None:
            payload["edge_node"] = self.edge_node
        return payload


# -- the per-bucket aggregate -------------------------------------------------


class ServeBucket:
    """Every serve series of one bucket.

    Most buckets see few completions, so a series is created on its
    first value; until then the field is the shared empty series, which
    answers every read as an empty series would.
    """

    __slots__ = (
        "requests",
        "completed",
        "hits",
        "fetches",
        "piggybacked",
        "shed",
        "shed_reasons",
        "tiers",
        "inflight",
        "inflight_max",
        "sojourn",
        "queue_wait",
        "batch_wait",
        "service",
        "edge_hop",
        "energy",
        "hit_energy",
        "miss_energy",
        "energy_by_source",
        "hop_err_s_max",
        "hop_err_j_max",
        "exemplars",
    )

    def __init__(self) -> None:
        self.requests = 0
        self.completed = 0
        self.hits = 0
        self.fetches = 0
        self.piggybacked = 0
        self.shed = 0
        self.shed_reasons: Dict[str, int] = {}
        self.tiers: Dict[str, int] = {}
        #: last in-flight count observed (None: never observed)
        self.inflight: Optional[float] = None
        self.inflight_max = -math.inf
        self.sojourn = _EMPTY_SERIES
        self.queue_wait = _EMPTY_SERIES
        self.batch_wait = _EMPTY_SERIES
        self.service = _EMPTY_SERIES
        #: cloudlet time (edge_hop + edge_serve) of edge-path requests
        self.edge_hop = _EMPTY_SERIES
        self.energy = _EMPTY_SERIES
        #: ``[count, joules]`` of hits and of misses
        self.hit_energy = [0, 0.0]
        self.miss_energy = [0, 0.0]
        self.energy_by_source: Dict[str, float] = {}
        self.hop_err_s_max = 0.0
        self.hop_err_j_max = 0.0
        #: up to :data:`EXEMPLAR_K` ``(sojourn_s, record)``, slowest first
        self.exemplars: List[Tuple[float, RequestRecord]] = []

    def observe_inflight(self, inflight: float) -> None:
        self.inflight = float(inflight)
        if inflight > self.inflight_max:
            self.inflight_max = float(inflight)

    def add_shed(self, reason: str) -> None:
        self.shed += 1
        self.shed_reasons[reason] = self.shed_reasons.get(reason, 0) + 1

    def add(self, record: RequestRecord) -> None:
        """Fold one completed request into every series."""
        seg = record.segments
        if not self.completed:
            # Every completion feeds these four series.
            self.sojourn = _Series()
            self.queue_wait = _Series()
            self.batch_wait = _Series()
            self.service = _Series()
        self.completed += 1
        if record.hit:
            self.hits += 1
        elif record.shared:
            self.piggybacked += 1
        elif seg["batch_wait"] > 0:
            self.fetches += 1
        self.tiers[record.tier] = self.tiers.get(record.tier, 0) + 1
        sojourn = record.sojourn_s
        self.sojourn.add(sojourn)
        self.queue_wait.add(seg["queue_wait"])
        self.batch_wait.add(seg["batch_wait"])
        self.service.add(seg["service"])
        edge_s = seg["edge_hop"] + seg["edge_serve"]
        if edge_s > 0:
            if self.edge_hop is _EMPTY_SERIES:
                self.edge_hop = _Series()
            self.edge_hop.add(edge_s)
        energy_j = record.energy_j
        if energy_j is not None:
            if self.energy is _EMPTY_SERIES:
                self.energy = _Series()
            self.energy.add(energy_j)
            side = self.hit_energy if record.hit else self.miss_energy
            side[0] += 1
            side[1] += energy_j
            by_source = self.energy_by_source
            by_source[record.source] = (
                by_source.get(record.source, 0.0) + energy_j
            )
        if record.hop_err_s > self.hop_err_s_max:
            self.hop_err_s_max = record.hop_err_s
        if record.hop_err_j > self.hop_err_j_max:
            self.hop_err_j_max = record.hop_err_j
        if record.trace is not None:
            kept = self.exemplars
            if len(kept) < EXEMPLAR_K or sojourn > kept[-1][0]:
                kept.append((sojourn, record))
                kept.sort(key=lambda pair: -pair[0])
                del kept[EXEMPLAR_K:]


def slowest(
    buckets: Iterable[ServeBucket], k: int = EXEMPLAR_K
) -> List[Dict[str, Any]]:
    """The ``k`` slowest exemplars across ``buckets`` (oldest first on
    ties), each with its ``latency_s``."""
    entries = [pair for b in buckets for pair in b.exemplars]
    entries.sort(key=lambda pair: -pair[0])
    return [
        dict(record.exemplar(), latency_s=latency)
        for latency, record in entries[:k]
    ]
