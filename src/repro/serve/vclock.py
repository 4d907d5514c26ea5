"""Deterministic simulated-time asyncio event loop.

The serving layer runs in two clocks:

* **real time** — a stock asyncio loop; ``await asyncio.sleep(dt)``
  takes ``dt`` wall seconds (demos, live smoke tests);
* **simulated time** — :class:`VirtualTimeLoop`; the loop's clock jumps
  instantly to the next scheduled callback, so a month of simulated
  traffic runs in however long the Python work itself takes, and two
  runs of the same workload interleave identically.

The virtual loop is a :class:`asyncio.SelectorEventLoop` whose selector
never blocks: whenever the loop would have slept ``timeout`` seconds
waiting for timers, the virtual clock advances by ``timeout`` instead.
Only those clock-advancing turns poll the real selector (without
blocking, so the self-pipe that ``call_soon_threadsafe`` writes to
drains); a turn that only runs ready callbacks makes no system call.
Everything else — task scheduling, callback ordering, cancellation — is
the standard asyncio machinery, so server code cannot tell which clock
it is running under.

Determinism: with no real I/O in flight, the loop is single-threaded
and processes ready callbacks in FIFO order and timers in (deadline,
schedule-order) order, so a fixed workload yields a fixed interleaving.
"""

from __future__ import annotations

import asyncio
import selectors
from typing import Any, Coroutine, TypeVar

T = TypeVar("T")

__all__ = ["VirtualTimeLoop", "run_simulated"]


class VirtualTimeLoop(asyncio.SelectorEventLoop):
    """An event loop whose clock is simulated seconds, not wall time.

    ``loop.time()`` starts at 0.0 and advances only when the loop would
    otherwise block waiting for its earliest timer.  A coroutine that
    does ``await asyncio.sleep(3600)`` on this loop resumes immediately
    (in wall terms) with the loop clock 3600 s later.
    """

    def __init__(self) -> None:
        super().__init__(selectors.SelectSelector())
        self._virtual_now = 0.0
        self._wall_select = self._selector.select
        self._selector.select = self._virtual_select  # type: ignore[method-assign]

    def time(self) -> float:
        return self._virtual_now

    def _virtual_select(self, timeout=None):
        if timeout is None:
            # No ready callbacks and no scheduled timers: a wall-clock
            # loop would block on I/O forever.  In a pure simulation that
            # means some task awaits a future nobody will ever resolve —
            # fail fast instead of spinning.
            raise RuntimeError(
                "virtual-time loop stalled: tasks are waiting but no timer "
                "or callback is scheduled (deadlocked await?)"
            )
        if timeout > 0:
            self._virtual_now += timeout
            # Poll without blocking so self-pipe bytes
            # (call_soon_threadsafe) drain.
            return self._wall_select(0)
        return []


def run_simulated(coro: Coroutine[Any, Any, T]) -> T:
    """Run ``coro`` to completion on a fresh :class:`VirtualTimeLoop`.

    The loop is closed afterwards; the coroutine's result (or exception)
    propagates to the caller.
    """
    loop = VirtualTimeLoop()
    try:
        return loop.run_until_complete(coro)
    finally:
        loop.close()
