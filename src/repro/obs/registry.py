"""Named counters, gauges, and bounded-memory streaming histograms.

The registry gives the serve plane a place to accumulate aggregates
without retaining per-event objects:

* :class:`Counter` — monotonically increasing count.
* :class:`Gauge` — last-set value.
* :class:`StreamingHistogram` — count/sum/min/max plus a fixed-size
  uniform reservoir (Vitter's algorithm R), answering arbitrary
  percentile queries in O(reservoir) memory.  q=0 and q=100 are exact
  (tracked min/max); interior quantiles are estimates whose error
  shrinks with reservoir size.
* :func:`nearest_rank` — the nearest-rank percentile rule shared by
  every exact and windowed percentile.

All structures are deterministic: the reservoir's PRNG has a fixed
seed, so the same stream gives the same percentile estimates every run.

Instruments and the registry are safe for concurrent use from threads
and asyncio tasks: get-or-create is serialized by a registry lock, and
each mutating instrument guards its state with its own lock (``inc`` on
a shared counter from N threads never loses an increment).  Single-task
asyncio code pays one uncontended lock acquisition per record — noise
next to the arithmetic it protects.
"""

from __future__ import annotations

import json
import math
import random
import threading
from typing import Any, Dict, List, Optional, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "StreamingHistogram",
    "get_registry",
    "nearest_rank",
]


class Counter:
    """A monotonically increasing named count (thread-safe)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counter increment must be non-negative, got {n}")
        with self._lock:
            self.value += n

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A named last-value-wins measurement (thread-safe)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.value = value

    def max(self, value: float) -> None:
        """Raise the gauge to ``value`` if it is higher (high-watermark)."""
        value = float(value)
        with self._lock:
            if value > self.value:
                self.value = value

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "gauge", "value": self.value}


def nearest_rank(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 100] of a non-empty sorted
    sequence — the one percentile rule every report in this repo uses.
    Callers choose their own empty-input value."""
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


#: Seed of every reservoir's PRNG, fixed so estimates are reproducible.
_RESERVOIR_SEED = 0x5EED


class StreamingHistogram:
    """Bounded-memory distribution summary with percentile queries.

    Tracks count, sum, exact min/max, and a fixed-size uniform sample of
    the stream (reservoir sampling, algorithm R).  ``quantile(0)`` and
    ``quantile(100)`` return the exact extremes; interior quantiles are
    nearest-rank over the reservoir.

    Args:
        reservoir_size: retained sample count (memory bound).
    """

    def __init__(self, reservoir_size: int = 1024) -> None:
        if reservoir_size <= 0:
            raise ValueError(
                f"reservoir_size must be positive, got {reservoir_size}"
            )
        self.reservoir_size = reservoir_size
        self._rng = random.Random(_RESERVOIR_SEED)
        self._sample: List[float] = []
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        # Reentrant: snapshot() calls quantile() under the same lock.
        self._lock = threading.RLock()

    def add(self, x: float) -> None:
        x = float(x)
        with self._lock:
            self._add_locked(x)

    def _add_locked(self, x: float) -> None:
        self.count += 1
        self.total += x
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x
        if len(self._sample) < self.reservoir_size:
            self._sample.append(x)
        else:
            j = self._rng.randrange(self.count)
            if j < self.reservoir_size:
                self._sample[j] = x

    def extend(self, xs) -> None:
        with self._lock:
            for x in xs:
                self._add_locked(float(x))

    @property
    def mean(self) -> float:
        """Stream mean (``nan`` when empty)."""
        with self._lock:
            if self.count == 0:
                return float("nan")
            return self.total / self.count

    def samples(self) -> List[float]:
        """A copy of the retained reservoir sample."""
        with self._lock:
            return list(self._sample)

    def quantile(self, q: float) -> float:
        """Percentile ``q`` in [0, 100] (``nan`` when empty).

        Exact at the extremes, nearest-rank over the reservoir between.
        """
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        with self._lock:
            if self.count == 0:
                return float("nan")
            if q == 0:
                return self.min
            if q == 100:
                return self.max
            ordered = sorted(self._sample)
        return nearest_rank(ordered, q)

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "type": "histogram",
                "count": self.count,
                "sum": self.total,
                "min": self.min if self.count else None,
                "max": self.max if self.count else None,
                "mean": self.total / self.count if self.count else None,
                "p50": self.quantile(50) if self.count else None,
                "p95": self.quantile(95) if self.count else None,
                "p99": self.quantile(99) if self.count else None,
            }


class MetricsRegistry:
    """Get-or-create registry of named instruments (thread-safe)."""

    def __init__(self) -> None:
        self._instruments: Dict[str, Any] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge, lambda: Gauge(name))

    def histogram(
        self, name: str, reservoir_size: int = 1024
    ) -> StreamingHistogram:
        return self._get_or_create(
            name,
            StreamingHistogram,
            lambda: StreamingHistogram(reservoir_size=reservoir_size),
        )

    def _get_or_create(self, name, expected_type, factory):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = factory()
                self._instruments[name] = instrument
            elif not isinstance(instrument, expected_type):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__}, not {expected_type.__name__}"
                )
            return instrument

    def get(self, name: str) -> Optional[Any]:
        with self._lock:
            return self._instruments.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._instruments)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """All instruments as plain dicts (for manifests / JSON export)."""
        with self._lock:
            instruments = sorted(self._instruments.items())
        return {name: inst.snapshot() for name, inst in instruments}

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.snapshot(), indent=indent)

    def clear(self) -> None:
        with self._lock:
            self._instruments.clear()


_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _registry
