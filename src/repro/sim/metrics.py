"""Latency / energy / hit-rate metric aggregation for replay experiments.

Two storage modes, one interface:

* **exact** (default) — every :class:`QueryOutcome` is retained;
  aggregates and percentiles are computed from the full list.
* **bounded** (``MetricsCollector(bounded=True)``) — outcomes are folded
  into O(1)-memory streaming state (counts, sums, a reservoir-backed
  :class:`~repro.obs.registry.StreamingHistogram` for latency, and
  per-bucket hit counts for time windows), so replays over thousands of
  users never hold per-query objects.  Percentiles become estimates
  (exact at q=0/q=100); ``window()`` boundaries are resolved at
  ``window_bucket_s`` granularity.

Empty-state contract: counting aggregates (``count``, ``hits``,
``total_*``) are 0 and ``hit_rate`` is 0.0 on an empty collector, while
*undefined* statistics — ``mean_latency_s``, ``mean_energy_j``, and
``latency_percentile`` — return ``nan`` rather than raising, so callers
can aggregate sparse user buckets without guarding every access.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional

from repro.obs.registry import StreamingHistogram, nearest_rank

#: Default bounded-mode window resolution: one day of simulated time.
DEFAULT_WINDOW_BUCKET_S = 24 * 3600.0

_NAN = float("nan")


class ServiceSource(Enum):
    """How a query was ultimately served."""

    CACHE = "cache"
    RADIO_3G = "3g"
    RADIO_EDGE = "edge"
    RADIO_WIFI = "802.11g"

    @property
    def is_local(self) -> bool:
        return self is ServiceSource.CACHE


@dataclass(frozen=True)
class QueryOutcome:
    """The measured outcome of serving one query."""

    query: str
    hit: bool
    source: ServiceSource
    latency_s: float
    energy_j: float
    timestamp: float = 0.0
    navigational: Optional[bool] = None


@dataclass
class MetricsCollector:
    """Accumulates :class:`QueryOutcome` records and computes aggregates.

    Args:
        outcomes: pre-existing outcome list (exact mode only).
        bounded: fold outcomes into streaming state instead of retaining
            them (see module docstring for the accuracy trade-offs).
        reservoir_size: latency-histogram reservoir size in bounded mode.
        window_bucket_s: time-bucket width for bounded ``window()``.
        reservoir_seed: seed of the bounded-mode latency reservoir.
            ``None`` keeps the histogram's fixed default; the replay
            harness derives one per user (keyed by user id) so reservoir
            contents are reproducible independently of which worker
            process or shard replays the user.
    """

    outcomes: List[QueryOutcome] = field(default_factory=list)
    bounded: bool = False
    reservoir_size: int = 1024
    window_bucket_s: float = DEFAULT_WINDOW_BUCKET_S
    reservoir_seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.window_bucket_s <= 0:
            raise ValueError(
                f"window_bucket_s must be positive, got {self.window_bucket_s}"
            )
        self._count = 0
        self._hits = 0
        self._latency_total = 0.0
        self._energy_total = 0.0
        self._nav_hits = 0
        self._flagged_hits = 0  # hits with a non-None navigational flag
        self._latency_hist: Optional[StreamingHistogram] = None
        self._buckets: Dict[int, List[int]] = {}  # bucket -> [count, hits]
        if self.bounded:
            if self.reservoir_seed is None:
                self._latency_hist = StreamingHistogram(
                    reservoir_size=self.reservoir_size
                )
            else:
                self._latency_hist = StreamingHistogram(
                    reservoir_size=self.reservoir_size,
                    seed=self.reservoir_seed,
                )
            if self.outcomes:
                preload, self.outcomes = self.outcomes, []
                for outcome in preload:
                    self.record(outcome)

    # -- recording ----------------------------------------------------------

    def record(self, outcome: QueryOutcome) -> None:
        if not self.bounded:
            self.outcomes.append(outcome)
            return
        self._count += 1
        self._latency_total += outcome.latency_s
        self._energy_total += outcome.energy_j
        self._latency_hist.add(outcome.latency_s)
        bucket = self._buckets.setdefault(
            int(outcome.timestamp // self.window_bucket_s), [0, 0]
        )
        bucket[0] += 1
        if outcome.hit:
            self._hits += 1
            bucket[1] += 1
            if outcome.navigational is not None:
                self._flagged_hits += 1
                if outcome.navigational:
                    self._nav_hits += 1

    def extend(self, outcomes: List[QueryOutcome]) -> None:
        if not self.bounded:
            self.outcomes.extend(outcomes)
            return
        for outcome in outcomes:
            self.record(outcome)

    def merge(self, other: "MetricsCollector") -> None:
        """Fold another collector's outcomes into this one.

        A bounded collector can absorb either mode (absorbing an exact
        collector replays its outcome list; absorbing a bounded one
        combines streaming state, with the reservoir merge documented in
        :meth:`StreamingHistogram.merge`).  An exact collector can only
        absorb another exact collector — the per-outcome records a
        bounded source discarded cannot be reconstructed.
        """
        if not self.bounded:
            if other.bounded:
                raise ValueError(
                    "cannot merge a bounded collector into an exact one; "
                    "merge in the other direction"
                )
            self.outcomes.extend(other.outcomes)
            return
        if not other.bounded:
            self.extend(other.outcomes)
            return
        self._count += other._count
        self._hits += other._hits
        self._latency_total += other._latency_total
        self._energy_total += other._energy_total
        self._nav_hits += other._nav_hits
        self._flagged_hits += other._flagged_hits
        self._latency_hist.merge(other._latency_hist)
        for bucket_id, (count, hits) in other._buckets.items():
            bucket = self._buckets.setdefault(bucket_id, [0, 0])
            bucket[0] += count
            bucket[1] += hits

    # -- aggregates ---------------------------------------------------------

    @property
    def count(self) -> int:
        return self._count if self.bounded else len(self.outcomes)

    @property
    def hits(self) -> int:
        if self.bounded:
            return self._hits
        return sum(1 for o in self.outcomes if o.hit)

    @property
    def hit_rate(self) -> float:
        """Fraction of queries served from the cache (0.0 when empty)."""
        if self.count == 0:
            return 0.0
        return self.hits / self.count

    @property
    def mean_latency_s(self) -> float:
        """Mean per-query latency (``nan`` when empty)."""
        if self.count == 0:
            return _NAN
        return self.total_latency_s / self.count

    @property
    def mean_energy_j(self) -> float:
        """Mean per-query energy (``nan`` when empty)."""
        if self.count == 0:
            return _NAN
        return self.total_energy_j / self.count

    @property
    def total_energy_j(self) -> float:
        if self.bounded:
            return self._energy_total
        return sum(o.energy_j for o in self.outcomes)

    @property
    def total_latency_s(self) -> float:
        if self.bounded:
            return self._latency_total
        return sum(o.latency_s for o in self.outcomes)

    def latency_percentile(self, q: float) -> float:
        """Latency percentile ``q`` in [0, 100] (``nan`` when empty).

        Exact (nearest-rank) in exact mode; in bounded mode a reservoir
        estimate, except q=0 and q=100 which report the exact extremes.
        """
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if self.count == 0:
            return _NAN
        if self.bounded:
            return self._latency_hist.quantile(q)
        return nearest_rank(sorted(o.latency_s for o in self.outcomes), q)

    def hit_rate_by(self, predicate) -> float:
        """Hit rate restricted to outcomes matching ``predicate``.

        Exact mode only: bounded collectors do not retain outcomes.
        """
        self._require_exact("hit_rate_by")
        subset = [o for o in self.outcomes if predicate(o)]
        if not subset:
            return 0.0
        return sum(1 for o in subset if o.hit) / len(subset)

    def hit_breakdown_navigational(self) -> Dict[str, float]:
        """Of all cache hits, the fraction that were navigational queries.

        Outcomes without a navigational flag are excluded.  Reproduces the
        split of Figure 19.
        """
        if self.bounded:
            flagged, nav = self._flagged_hits, self._nav_hits
        else:
            hits = [
                o
                for o in self.outcomes
                if o.hit and o.navigational is not None
            ]
            flagged, nav = len(hits), sum(1 for o in hits if o.navigational)
        if not flagged:
            return {"navigational": 0.0, "non_navigational": 0.0}
        return {
            "navigational": nav / flagged,
            "non_navigational": 1 - nav / flagged,
        }

    def window(self, t_start: float, t_end: float) -> "MetricsCollector":
        """Sub-collector of outcomes with timestamp in [t_start, t_end).

        Exact mode filters outcomes directly (start inclusive, end
        exclusive).  Bounded mode returns only the whole
        ``window_bucket_s`` buckets contained in the interval, carrying
        count/hit-rate aggregates; latency/energy statistics of a bounded
        window are ``nan``/0 because per-bucket distributions are not
        retained.  Boundaries aligned to the bucket width are therefore
        exact in both modes.
        """
        if not self.bounded:
            sub = MetricsCollector()
            sub.extend(
                [o for o in self.outcomes if t_start <= o.timestamp < t_end]
            )
            return sub
        sub = MetricsCollector(
            bounded=True,
            reservoir_size=self.reservoir_size,
            window_bucket_s=self.window_bucket_s,
            reservoir_seed=self.reservoir_seed,
        )
        width = self.window_bucket_s
        for bucket_id, (count, hits) in self._buckets.items():
            if bucket_id * width >= t_start and (bucket_id + 1) * width <= t_end:
                sub._buckets[bucket_id] = [count, hits]
                sub._count += count
                sub._hits += hits
        return sub

    def _require_exact(self, operation: str) -> None:
        if self.bounded:
            raise RuntimeError(
                f"{operation} requires per-outcome records; this collector "
                "is bounded (bounded=True) and only keeps streaming aggregates"
            )
