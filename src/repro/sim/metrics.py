"""Latency / energy / hit-rate metric aggregation for replay experiments.

A :class:`MetricsCollector` retains every :class:`QueryOutcome`; every
aggregate, window and percentile is computed exactly from that list
(percentiles by the nearest-rank rule).  The batch replay engine hands
a user's outcomes over as arrays (:meth:`MetricsCollector.defer`): their
objects are built, in stream order, the first time ``outcomes`` is
read, and ``count``, ``hits`` and ``hit_rate`` read the hit flags
without building them.

Empty-state contract: counting aggregates (``count``, ``hits``,
``total_*``) are 0 and ``hit_rate`` is 0.0 on an empty collector, while
*undefined* statistics — ``mean_latency_s``, ``mean_energy_j``, and
``latency_percentile`` — return ``nan`` rather than raising, so callers
can aggregate sparse user buckets without guarding every access.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.registry import nearest_rank

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


class MetricsCollector:
    """Accumulates :class:`QueryOutcome` records and computes aggregates."""

    __slots__ = ("_outcomes", "_deferred")

    def __init__(self, outcomes: Optional[List[QueryOutcome]] = None) -> None:
        self._outcomes: List[QueryOutcome] = (
            [] if outcomes is None else outcomes
        )
        #: (hit flags, build) per deferred batch, in arrival order
        self._deferred: List[Tuple[object, Callable[[], List[QueryOutcome]]]] = []

    @property
    def outcomes(self) -> List[QueryOutcome]:
        """Every outcome in arrival order (deferred batches are built
        here, once)."""
        if self._deferred:
            for _hit, build in self._deferred:
                self._outcomes.extend(build())
            self._deferred = []
        return self._outcomes

    # -- recording ----------------------------------------------------------

    def record(self, outcome: QueryOutcome) -> None:
        self.outcomes.append(outcome)

    def defer(self, hit, build: Callable[[], List[QueryOutcome]]) -> None:
        """Append ``len(hit)`` outcomes that ``build()`` returns, in order,
        when they are first read; ``hit`` is their boolean hit array."""
        self._deferred.append((hit, build))

    def merge(self, other: "MetricsCollector") -> None:
        """Fold another collector's outcomes into this one."""
        self.outcomes.extend(other.outcomes)

    # -- aggregates ---------------------------------------------------------

    @property
    def count(self) -> int:
        return len(self._outcomes) + sum(len(hit) for hit, _ in self._deferred)

    @property
    def hits(self) -> int:
        return sum(1 for o in self._outcomes if o.hit) + sum(
            int(hit.sum()) for hit, _ in self._deferred
        )

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
        return sum(o.energy_j for o in self.outcomes)

    @property
    def total_latency_s(self) -> float:
        return sum(o.latency_s for o in self.outcomes)

    def latency_percentile(self, q: float) -> float:
        """Nearest-rank latency percentile ``q`` in [0, 100] (``nan``
        when empty)."""
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if self.count == 0:
            return _NAN
        return nearest_rank(sorted(o.latency_s for o in self.outcomes), q)

    def hit_rate_by(self, predicate) -> float:
        """Hit rate restricted to outcomes matching ``predicate``."""
        subset = [o for o in self.outcomes if predicate(o)]
        if not subset:
            return 0.0
        return sum(1 for o in subset if o.hit) / len(subset)

    def hit_breakdown_navigational(self) -> Dict[str, float]:
        """Of all cache hits, the fraction that were navigational queries.

        Outcomes without a navigational flag are excluded.  Reproduces the
        split of Figure 19.
        """
        hits = [
            o for o in self.outcomes if o.hit and o.navigational is not None
        ]
        if not hits:
            return {"navigational": 0.0, "non_navigational": 0.0}
        nav = sum(1 for o in hits if o.navigational) / len(hits)
        return {"navigational": nav, "non_navigational": 1 - nav}

    def window(self, t_start: float, t_end: float) -> "MetricsCollector":
        """Sub-collector of outcomes with timestamp in [t_start, t_end)
        (start inclusive, end exclusive)."""
        return MetricsCollector(
            [o for o in self.outcomes if t_start <= o.timestamp < t_end]
        )
