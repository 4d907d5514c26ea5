"""Per-layer wall-time ledger for the traced benchmark run.

The ledger wraps the public calls the benchmark's workloads make into
each ``repro`` layer and records one span per call: name, start, end,
parent span and the device or user id the call serves.  Spans live in
memory and are written out once, when the run ends.

Spans nest because every timed call is synchronous: none of them awaits,
so no other task can run between a span's start and its end.  The two
coroutines on the request path (``EdgeTier.fetch`` and
``MissBatcher.fetch_shared``) interleave with other tasks at every
await, so they are counted but not timed; their wall time stays in the
enclosing ``loop.run`` span's self time.

A span's self time is its duration minus its direct children's
durations, so the self times of a run re-sum to its root span.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional

#: Spans that belong to the benchmark rather than to a ``repro`` layer;
#: their self time is the trace's residual.
RESIDUAL_SPANS = ("rep", "setup", "call")

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def current_rss_mb() -> float:
    """Resident set of this process now, in MB."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE_MB


def percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of a sorted list (0.0 when empty), the
    rule ``ServeReport`` uses for its sojourn percentiles."""
    if not ordered:
        return 0.0
    rank = max(0, math.ceil(q / 100 * len(ordered)) - 1)
    return ordered[rank]


class Ledger:
    """In-memory span recorder.

    Each span is a list ``[name, start, end, parent, ident]``; ``parent``
    is the index of the enclosing span (-1 for a root) and ``ident`` the
    device or user id, inherited from the parent when the call itself
    does not carry one.
    """

    def __init__(self, active: bool = True) -> None:
        self.spans: List[List[Any]] = []
        self.counts: Counter = Counter()
        #: values sampled at a boundary, such as RSS growth per call
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: False in untraced runs, and cleared once a traced run's
        #: measured phases end; wrappers then pass through
        self.active = active
        self._stack: List[int] = []

    def open(self, name: str, ident: Optional[int] = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        if ident is None and parent >= 0:
            ident = self.spans[parent][4]
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, ident])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError(
                f"span {self.spans[index][0]!r} closed out of order"
            )

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """The ``with`` block as one span (nothing when inactive)."""
        if not self.active:
            yield
            return
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def timed(
        self,
        name: str,
        fn: Callable,
        ident: Optional[Callable[..., Optional[int]]] = None,
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> Callable:
        """``fn`` wrapped in a span; ``ident(*args, **kwargs)`` names the
        device or user, ``on_result(result)`` counts outcomes."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = self.open(
                name, ident(*args, **kwargs) if ident is not None else None
            )
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped to count calls only (for coroutines)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- read side -----------------------------------------------------------

    def self_times(self) -> List[float]:
        """Per-span duration minus the durations of its direct children."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def layers(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, total, self, p50 and p99 (seconds)."""
        self_s = self.self_times()
        durations: Dict[str, List[float]] = {}
        table: Dict[str, Dict[str, float]] = {}
        for span, own in zip(self.spans, self_s):
            name = span[0]
            durations.setdefault(name, []).append(span[2] - span[1])
            row = table.setdefault(name, {"self_s": 0.0})
            row["self_s"] += own
        for name, values in durations.items():
            values.sort()
            table[name].update(
                count=len(values),
                total_s=math.fsum(values),
                p50_s=percentile(values, 50),
                p99_s=percentile(values, 99),
            )
        return table

    def self_under(self, name: str, ancestor: str) -> float:
        """Summed self time of ``name`` spans below an ``ancestor`` span."""
        self_s = self.self_times()
        total = 0.0
        for index, span in enumerate(self.spans):
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            if parent >= 0:
                total += self_s[index]
        return total

    def write_jsonl(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for index, (name, start, end, parent, ident) in enumerate(
                self.spans
            ):
                fh.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent if parent >= 0 else None,
                            "ident": ident,
                        }
                    )
                    + "\n"
                )
