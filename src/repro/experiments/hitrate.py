"""Section 6.2 experiments: Table 6, Figures 17-19, and the daily-update
study of Section 6.2.2."""

from __future__ import annotations

from typing import Dict

from repro.experiments.common import default_log, default_replay
from repro.logs import analysis
from repro.logs.schema import (
    CLASS_POPULATION_SHARE,
    CLASS_VOLUME_RANGES,
    MONTH_SECONDS,
    WEEK_SECONDS,
    UserClass,
)
from repro.sim.replay import (
    CacheMode,
    ReplayConfig,
    run_replay,
    select_replay_users,
)


def table6(seed: int = 23) -> Dict[str, dict]:
    """Table 6: user classes, volume bands, and observed population mix."""
    log = default_log(seed=seed)
    observed = analysis.observed_class_mix(log, month=1)
    return {
        user_class.value: {
            "volume_range": CLASS_VOLUME_RANGES[user_class][:2],
            "target_share": CLASS_POPULATION_SHARE[user_class],
            "observed_share": observed[user_class],
        }
        for user_class in UserClass
    }


def figure17(users_per_class: int = 100, seed: int = 23) -> Dict[str, dict]:
    """Figure 17: hit rate per class for full / community / personal."""
    replay = default_replay(users_per_class=users_per_class, seed=seed)
    out = {}
    for mode, result in replay.items():
        by_class = result.hit_rate_by_class()
        out[mode] = {
            "overall": result.overall_hit_rate(),
            **{c.value: by_class[c] for c in UserClass},
        }
    return out


def figure18(users_per_class: int = 100, seed: int = 23) -> Dict[str, dict]:
    """Figure 18: hit rates over the first week and first two weeks."""
    replay = default_replay(users_per_class=users_per_class, seed=seed)
    t0 = 1 * MONTH_SECONDS  # replay month start
    windows = {
        "week1": (t0, t0 + WEEK_SECONDS),
        "weeks1_2": (t0, t0 + 2 * WEEK_SECONDS),
        "full_month": (t0, t0 + MONTH_SECONDS),
    }
    out: Dict[str, dict] = {}
    for window_name, (lo, hi) in windows.items():
        out[window_name] = {}
        for mode, result in replay.items():
            by_class = result.hit_rate_by_class_windowed(lo, hi)
            out[window_name][mode] = {
                c.value: by_class[c] for c in UserClass
            }
    return out


def figure19(users_per_class: int = 100, seed: int = 23) -> Dict[str, dict]:
    """Figure 19: navigational vs non-navigational share of cache hits."""
    replay = default_replay(users_per_class=users_per_class, seed=seed)
    full = replay[CacheMode.FULL]
    breakdown = full.navigational_breakdown()
    merged_nav = []
    merged_weights = []
    out = {}
    for user_class in UserClass:
        split = breakdown[user_class]
        out[user_class.value] = split
        hits = sum(
            u.metrics.hits
            for u in full.users
            if u.user_class is user_class
        )
        merged_nav.append(split["navigational"] * hits)
        merged_weights.append(hits)
    total_hits = sum(merged_weights)
    overall_nav = sum(merged_nav) / total_hits if total_hits else 0.0
    out["overall"] = {
        "navigational": overall_nav,
        "non_navigational": 1 - overall_nav,
    }
    return out


def daily_updates(
    users_per_class: int = 25, seed: int = 23, engine: str = "vectorized",
) -> Dict[str, float]:
    """Section 6.2.2: full-cache hit rate with vs without daily updates.

    ``engine`` selects nothing: replay always runs the batch engine
    (:func:`repro.sim.replay.replay_one_user`).  The keyword is kept
    only because the wall-clock benchmark's replay-daily workload
    passes ``engine="vectorized"``; any other value raises ValueError.
    """
    if engine != "vectorized":
        raise ValueError(
            f"replay has one engine; engine={engine!r} is not accepted"
        )
    log = default_log(seed=seed)
    users = select_replay_users(log, month=1, users_per_class=users_per_class)
    static = run_replay(
        log,
        ReplayConfig(users_per_class=users_per_class),
        modes=(CacheMode.FULL,),
        selected_users=users,
    )[CacheMode.FULL]
    daily = run_replay(
        log,
        ReplayConfig(users_per_class=users_per_class, daily_updates=True),
        modes=(CacheMode.FULL,),
        selected_users=users,
    )[CacheMode.FULL]
    return {
        "static_hit_rate": static.overall_hit_rate(),
        "daily_update_hit_rate": daily.overall_hit_rate(),
        "improvement": daily.overall_hit_rate() - static.overall_hit_rate(),
    }
