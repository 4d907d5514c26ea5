"""Query-stream replay harness (Section 6.2).

Reproduces the paper's hit-rate methodology:

1. build the community cache content from one month of logs;
2. randomly select N users per Table 6 class based on their *replay*
   month volume;
3. replay each user's next-month query stream against a fresh
   PocketSearch cache (each user has their own phone), in one of three
   modes: full, community-only (personalization off), or
   personalization-only (community content empty);
4. aggregate hit rates per class, per week, and by navigational split.

Optionally applies daily server updates during the replay (Section
6.2.2), refreshing the community component from a trailing log window.

Each user is served by the batch engine (:mod:`repro.sim.vectorized`),
which serves a whole stream in one pass over integer ids and prices its
hits in one array evaluation.  While the tracer
records, users are served event by event through a
:class:`PocketSearchEngine` instead (:func:`replay_user`): that path
opens the per-query spans, and the differential tests hold the batch
engine bit-identical to it.

Each user's replay is independent (one phone per user), and users are
replayed one after another in the calling process.  The only randomness,
the user-selection lottery, is derived per user from
``np.random.SeedSequence`` spawn keys over the user id — never from a
shared stream — so one class's candidates never perturb another's
picks, and a user's selection does not depend on which other users
exist or the order they are visited in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.logs.generator import SearchLog
from repro.logs.schema import MONTH_SECONDS, UserClass, classify_user
from repro.obs.trace import get_tracer
from repro.pocketsearch.cache import PocketSearchCache
from repro.pocketsearch.content import (
    CacheContent,
    ContentPolicy,
    PAPER_OPERATING_POINT,
    build_cache_content,
    build_trailing_contents,
    result_record_bytes,
)
from repro.pocketsearch.database import ResultDatabase
from repro.pocketsearch.engine import PocketSearchEngine
from repro.pocketsearch.manager import CacheUpdateServer
from repro.sim.metrics import MetricsCollector
from repro.sim.vectorized import (
    month_content,
    prepare_replay,
    replay_user_vectorized,
)
from repro.storage.filesystem import FlashFilesystem
from repro.storage.flash import NandFlash

DAY_SECONDS = 24 * 3600


class CacheMode:
    """The three Figure 17 cache configurations."""

    FULL = "full"
    COMMUNITY_ONLY = "community"
    PERSONALIZATION_ONLY = "personalization"

    ALL = (FULL, COMMUNITY_ONLY, PERSONALIZATION_ONLY)


@dataclass(frozen=True)
class ReplayConfig:
    """Replay experiment parameters."""

    build_month: int = 0
    replay_month: int = 1
    users_per_class: int = 100
    policy: ContentPolicy = PAPER_OPERATING_POINT
    seed: int = 97
    daily_updates: bool = False

    def __post_init__(self) -> None:
        if self.users_per_class <= 0:
            raise ValueError("users_per_class must be positive")
        if self.build_month == self.replay_month:
            raise ValueError("build and replay months must differ")


@dataclass
class UserReplayResult:
    """Outcome of one user's month-long replay."""

    user_id: int
    user_class: UserClass
    metrics: MetricsCollector


@dataclass
class ReplayResult:
    """All user replays of one mode."""

    mode: str
    users: List[UserReplayResult] = field(default_factory=list)

    def _mean_rate_by_class(self, user_rate) -> Dict[UserClass, float]:
        """Bucket per-user rates by class and average each bucket.

        ``user_rate`` maps a :class:`UserReplayResult` to a rate or
        ``None`` (user excluded from their class bucket).  Classes with
        no contributing users yield NaN.
        """
        rates: Dict[UserClass, List[float]] = {c: [] for c in UserClass}
        for user in self.users:
            rate = user_rate(user)
            if rate is not None:
                rates[user.user_class].append(rate)
        return {
            c: float(np.mean(v)) if v else float("nan")
            for c, v in rates.items()
        }

    def hit_rate_by_class(self) -> Dict[UserClass, float]:
        """Mean per-user hit rate for each class (the Figure 17 bars)."""
        return self._mean_rate_by_class(lambda user: user.metrics.hit_rate)

    def overall_hit_rate(self) -> float:
        """Mean per-user hit rate across all replayed users."""
        if not self.users:
            return 0.0
        return float(np.mean([u.metrics.hit_rate for u in self.users]))

    def hit_rate_by_class_windowed(
        self, t_start: float, t_end: float
    ) -> Dict[UserClass, float]:
        """Figure 18: per-class hit rate restricted to a time window."""

        def windowed_rate(user: UserReplayResult) -> Optional[float]:
            window = user.metrics.window(t_start, t_end)
            return window.hit_rate if window.count else None

        return self._mean_rate_by_class(windowed_rate)

    def navigational_breakdown(self) -> Dict[UserClass, Dict[str, float]]:
        """Figure 19: cache-hit split into nav / non-nav per class."""
        out: Dict[UserClass, Dict[str, float]] = {}
        for user_class in UserClass:
            merged = MetricsCollector()
            for user in self.users:
                if user.user_class is user_class:
                    merged.merge(user.metrics)
            out[user_class] = merged.hit_breakdown_navigational()
        return out


# Spawn-key domain of the selection lottery.  Renumbering it would
# change every user selection.
_SELECTION_DOMAIN = 0


def _selection_priority(seed: int, user_id: int) -> int:
    """Per-user lottery ticket for :func:`select_replay_users`."""
    seq = np.random.SeedSequence(seed, spawn_key=(_SELECTION_DOMAIN, user_id))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def select_replay_users(
    log: SearchLog,
    month: int,
    users_per_class: int,
    seed: int = 97,
) -> Dict[UserClass, List[int]]:
    """Randomly pick ``users_per_class`` users per Table 6 class.

    Classification uses the user's volume in the replay month, and users
    below the 20-queries/month floor are excluded, as in the paper.

    Selection is a per-user lottery keyed by ``(seed, user_id)``: each
    eligible user draws an independent priority and the
    ``users_per_class`` lowest tickets win.  Because no shared RNG stream
    is consumed, one class's candidate pool never perturbs another
    class's selection, and adding or removing unrelated users leaves
    existing picks stable (no draw-order coupling).
    """
    volumes = log.user_monthly_volumes(month=month)
    buckets: Dict[UserClass, List[int]] = {c: [] for c in UserClass}
    for uid, volume in volumes.items():
        user_class = classify_user(volume)
        if user_class is not None:
            buckets[user_class].append(uid)
    selected = {}
    for user_class, uids in buckets.items():
        if len(uids) > users_per_class:
            ranked = sorted(
                uids, key=lambda uid: (_selection_priority(seed, uid), uid)
            )
            uids = ranked[:users_per_class]
        selected[user_class] = sorted(uids)
    return selected


def make_cache(
    content: Optional[CacheContent],
    mode: str,
    results_per_entry: int = 2,
) -> PocketSearchCache:
    """A fresh per-user cache in the given mode."""
    from repro.pocketsearch.hashtable import QueryHashTable

    database = ResultDatabase(FlashFilesystem(NandFlash()))
    cache = PocketSearchCache(
        hashtable=QueryHashTable(results_per_entry=results_per_entry),
        database=database,
        personalization_enabled=(mode != CacheMode.COMMUNITY_ONLY),
    )
    if mode != CacheMode.PERSONALIZATION_ONLY and content is not None:
        cache.load_community(content)
    return cache


def replay_user(
    engine: PocketSearchEngine,
    log: SearchLog,
    user_id: int,
    t_start: float,
    t_end: float,
    metrics: Optional[MetricsCollector] = None,
    daily_contents: Optional[List[CacheContent]] = None,
) -> MetricsCollector:
    """Replay one user's events in [t_start, t_end) through an engine,
    one event at a time.

    With ``daily_contents`` the community component gets a nightly
    refresh (Section 6.2.2): before the first event of replay day *d*,
    every day up to *d* not yet applied is refreshed in order.
    """
    stream = log.for_user(user_id).window(t_start, t_end)
    if metrics is None:
        metrics = MetricsCollector()
    tracer = get_tracer()
    server = CacheUpdateServer()
    daily_attr = {"daily_updates": True} if daily_contents else {}
    with tracer.span(
        "replay_user", user_id=user_id, n_events=stream.n_events,
        **daily_attr,
    ) as span:
        day = 0
        for i in range(stream.n_events):
            t = float(stream.timestamps[i])
            if daily_contents:
                event_day = min(
                    int((t - t_start) // DAY_SECONDS), len(daily_contents) - 1
                )
                while day <= event_day:
                    with tracer.span("community_refresh", day=day):
                        server.refresh_with_content(
                            engine.cache, daily_contents[day]
                        )
                    day += 1
            qkey = int(stream.query_keys[i])
            rkey = int(stream.result_keys[i])
            result = engine.serve_query(
                query=stream.query_string(qkey),
                clicked_url=stream.result_url(rkey),
                record_bytes=result_record_bytes(stream, rkey),
                navigational=bool(stream.navigational[i]),
                timestamp=t,
            )
            metrics.record(result.outcome)
        span.set_attr("hit_rate", metrics.hit_rate)
    return metrics


def run_replay(
    log: SearchLog,
    config: ReplayConfig = ReplayConfig(),
    modes: Iterable[str] = CacheMode.ALL,
    selected_users: Optional[Dict[UserClass, List[int]]] = None,
) -> Dict[str, ReplayResult]:
    """The full Section 6.2 experiment.

    Args:
        log: a log spanning at least the build and replay months.
        config: experiment parameters.
        modes: which cache modes to run.
        selected_users: pre-selected users (else sampled per Table 6).

    Returns:
        mode -> :class:`ReplayResult`.
    """
    tracer = get_tracer()
    with tracer.span("build_cache_content", month=config.build_month):
        content = month_content(
            log, config.build_month, config.policy, build_cache_content
        )
    if selected_users is None:
        selected_users = select_replay_users(
            log, config.replay_month, config.users_per_class, config.seed
        )
    t_start = config.replay_month * MONTH_SECONDS
    t_end = t_start + MONTH_SECONDS

    daily_contents: List[CacheContent] = []
    if config.daily_updates:
        with tracer.span("mine_daily_contents"):
            daily_contents = _daily_contents(log, config)

    work: List[Tuple[UserClass, int]] = [
        (user_class, uid)
        for user_class, uids in selected_users.items()
        for uid in uids
    ]

    results: Dict[str, ReplayResult] = {}
    for mode in modes:
        if work and not tracer.enabled:  # the batch engine serves them
            prepare_replay(
                log, content, _daily_for(config, mode, daily_contents),
                mode, t_start, t_end,
            )
        with tracer.span("replay_mode", mode=mode) as mode_span:
            users = [
                replay_one_user(
                    log, content, daily_contents, config, mode,
                    user_class, uid, t_start, t_end,
                )
                for user_class, uid in work
            ]
            result = ReplayResult(mode=mode, users=users)
            mode_span.set_attrs(
                n_users=len(result.users),
                overall_hit_rate=result.overall_hit_rate(),
            )
        results[mode] = result
    return results


def replay_one_user(
    log: SearchLog,
    content: Optional[CacheContent],
    daily_contents: List[CacheContent],
    config: ReplayConfig,
    mode: str,
    user_class: UserClass,
    user_id: int,
    t_start: float,
    t_end: float,
) -> UserReplayResult:
    """Replay a single user on a fresh phone.

    Everything a user's outcome depends on — the cache content, the log
    window, and the config — is passed in explicitly.

    The batch engine (:func:`~repro.sim.vectorized.replay_user_vectorized`)
    serves the user unless the tracer is recording.  Then the per-event
    :func:`replay_user` does, because only it opens a span per query;
    both give bit-identical outcomes.
    """
    daily = _daily_for(config, mode, daily_contents)
    metrics = MetricsCollector()
    if get_tracer().enabled:
        engine = PocketSearchEngine(make_cache(content, mode))
        replay_user(engine, log, user_id, t_start, t_end, metrics, daily)
    else:
        replay_user_vectorized(
            log, content, daily, mode, user_id, t_start, t_end,
            metrics=metrics,
        )
    return UserReplayResult(
        user_id=user_id, user_class=user_class, metrics=metrics
    )


def _daily_for(
    config: ReplayConfig, mode: str, daily_contents: List[CacheContent]
) -> Optional[List[CacheContent]]:
    """The nightly contents a mode's users refresh from, or ``None``: a
    personalization-only cache holds no community content to refresh."""
    if config.daily_updates and mode != CacheMode.PERSONALIZATION_ONLY:
        return daily_contents
    return None


def _daily_contents(log: SearchLog, config: ReplayConfig) -> List[CacheContent]:
    """Pre-mine the popular set once per replay day (trailing 30 days)."""
    t_replay = config.replay_month * MONTH_SECONDS
    return build_trailing_contents(
        log,
        [t_replay + day * DAY_SECONDS for day in range(30)],
        MONTH_SECONDS,
        config.policy,
    )
