"""Shared, memoized experiment inputs.

The synthetic two-month log and the Section 6.2 replay are the expensive
inputs reused by many experiments; they are built once per process at the
default seed and scale.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict

from repro.logs.generator import GeneratorConfig, SearchLog, generate_logs
from repro.pocketsearch.content import CacheContent, PAPER_OPERATING_POINT
from repro.sim import replay, vectorized
from repro.sim.replay import CacheMode, ReplayConfig, ReplayResult, run_replay

#: Default seeds/scales for all experiments (see DESIGN.md section 5).
DEFAULT_SEED = 23
DEFAULT_MONTHS = 2


# Each memoized input passes its arguments positionally to an ``lru_cache``d
# builder: ``lru_cache`` keys on the call's spelling, so ``f()``,
# ``f(seed=23)`` and ``f(23)`` would otherwise build one value three times.


def default_log(months: int = DEFAULT_MONTHS, seed: int = DEFAULT_SEED) -> SearchLog:
    """The memoized default mobile log."""
    return _default_log(months, seed)


@lru_cache(maxsize=4)
def _default_log(months: int, seed: int) -> SearchLog:
    return generate_logs(config=GeneratorConfig(months=months, seed=seed))


def desktop_log(seed: int = 29) -> SearchLog:
    """The memoized desktop-mode comparison log."""
    return _desktop_log(seed)


@lru_cache(maxsize=2)
def _desktop_log(seed: int) -> SearchLog:
    return generate_logs(config=GeneratorConfig(months=1, seed=seed, desktop=True))


def default_content(seed: int = DEFAULT_SEED) -> CacheContent:
    """Community cache content mined from month 0 of the default log.

    Memoized where a replay's build-month content is, so a process that
    also replays the default log mines month 0 once.
    """
    return vectorized.month_content(
        default_log(seed=seed), 0, PAPER_OPERATING_POINT,
        replay.build_cache_content,
    )


_replay_cache: Dict[int, Dict[str, ReplayResult]] = {}


def clear_replay_cache() -> None:
    """Drop memoized replays so the next call actually re-runs.

    Needed when a caller wants side effects of the replay itself — e.g.
    ``repro trace`` / ``repro profile`` must re-execute the serve path to
    record spans; a memoized result would yield an empty trace.
    """
    _replay_cache.clear()


def default_replay(
    users_per_class: int = 100,
    seed: int = DEFAULT_SEED,
) -> Dict[str, ReplayResult]:
    """The memoized Section 6.2 replay (all three cache modes)."""
    key = (users_per_class, seed)
    if key not in _replay_cache:
        _replay_cache[key] = run_replay(
            default_log(seed=seed),
            ReplayConfig(users_per_class=users_per_class),
            modes=CacheMode.ALL,
        )
    return _replay_cache[key]


def format_table(rows, headers) -> str:
    """Plain-text table formatting for benchmark output."""
    rows = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(r) for r in rows)
    return "\n".join(lines)
