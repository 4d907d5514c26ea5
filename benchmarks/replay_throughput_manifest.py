"""Scalar-vs-vectorized replay-core throughput, recorded in a manifest.

Builds the replay inputs once — the log, the mined cache content, and
the Table 6 user selection — then times two per-user loops over the
same inputs.  The vectorized side is ``replay_one_user``, exactly the
work ``run_replay`` does per user; its process-level caches are
cleared first, so its wall time includes the columnar batch build and
universe construction (a cold start, the honest number).  The scalar
side calls the per-event ``replay_user`` directly, the path
``replay_one_user`` takes only while the tracer records; the tracer
stays off here, so no span cost lands on the scalar number.

Both sides keep every per-query outcome, and ``identical`` holds only
when each user's outcome stream is equal on both sides; a divergence
fails the run.  The headline metric is ``speedup_x`` = vectorized
events/sec over scalar events/sec.  At paper scale (10k-user population, ~1.5M-event
months) the run refuses to write a passing manifest below the 10x
floor the vectorized engine exists to clear::

    PYTHONPATH=src python benchmarks/replay_throughput_manifest.py \
        --scale paper --out manifests/replay_throughput.json

``--scale default`` runs the same comparison on the small default
universe (useful for smoke tests; setup costs dominate there, so no
speedup floor is applied unless ``--min-speedup`` is given).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments.common import DEFAULT_SEED, default_log
from repro.experiments.scale import paper_scale_log
from repro.logs.schema import MONTH_SECONDS
from repro.obs.manifest import ManifestRecorder
from repro.pocketsearch.content import build_cache_content
from repro.pocketsearch.engine import PocketSearchEngine
from repro.sim.replay import (
    CacheMode,
    ReplayConfig,
    UserReplayResult,
    make_cache,
    replay_one_user,
    replay_user,
    select_replay_users,
)
from repro.sim.vectorized import clear_caches


def _scalar_user(log, content, config, user_class, user_id, t_start, t_end):
    """One user through the per-event path, on ``replay_one_user``'s
    fresh phone."""
    engine = PocketSearchEngine(make_cache(content, CacheMode.FULL))
    metrics = replay_user(engine, log, user_id, t_start, t_end)
    return UserReplayResult(
        user_id=user_id, user_class=user_class, metrics=metrics
    )


def _vectorized_user(
    log, content, config, user_class, user_id, t_start, t_end
):
    return replay_one_user(
        log, content, [], config, CacheMode.FULL,
        user_class, user_id, t_start, t_end,
    )


ENGINES = {"scalar": _scalar_user, "vectorized": _vectorized_user}


def _timed_replay(engine, log, content, config, selected, t_start, t_end):
    """Run every selected user through ``engine``'s per-user function;
    return (wall seconds, user results)."""
    serve = ENGINES[engine]
    if engine == "vectorized":
        clear_caches()  # cold: charge batch+universe construction to the run
    t0 = time.perf_counter()
    users = [
        serve(log, content, config, user_class, user_id, t_start, t_end)
        for user_class, user_ids in selected.items()
        for user_id in user_ids
    ]
    return time.perf_counter() - t0, users


def run(
    scale: str,
    users_per_class: int,
    seed: int,
    out: str,
    min_speedup: float,
) -> dict:
    log = (
        paper_scale_log(months=2, seed=seed)
        if scale == "paper"
        else default_log(seed=seed)
    )
    config = ReplayConfig(users_per_class=users_per_class, seed=seed)
    content = build_cache_content(
        log.month(config.build_month), config.policy
    )
    selected = select_replay_users(
        log, config.replay_month, users_per_class, seed
    )
    t_start = config.replay_month * MONTH_SECONDS
    t_end = t_start + MONTH_SECONDS

    recorder = ManifestRecorder(
        "replay_throughput",
        config={
            "scale": scale,
            "users_per_class": users_per_class,
            "mode": CacheMode.FULL,
        },
        seed=seed,
    )
    with recorder:
        results = {}
        walls = {}
        for engine in ENGINES:
            walls[engine], results[engine] = _timed_replay(
                engine, log, content, config, selected, t_start, t_end
            )

        identical = all(
            a.user_id == b.user_id
            and a.user_class == b.user_class
            and a.metrics.outcomes == b.metrics.outcomes
            for a, b in zip(results["scalar"], results["vectorized"])
        )
        n_events = sum(u.metrics.count for u in results["scalar"])
        rates = {
            engine: n_events / walls[engine] for engine in walls
        }
        speedup = rates["vectorized"] / rates["scalar"]

        recorder.add_metric("n_users", len(results["scalar"]))
        recorder.add_metric("n_events", n_events)
        recorder.add_metric("scalar_wall_s", round(walls["scalar"], 4))
        recorder.add_metric("vectorized_wall_s", round(walls["vectorized"], 4))
        recorder.add_metric("scalar_events_per_s", round(rates["scalar"], 1))
        recorder.add_metric(
            "vectorized_events_per_s", round(rates["vectorized"], 1)
        )
        recorder.add_metric("speedup_x", round(speedup, 3))
        recorder.add_metric("identical", identical)

    path = recorder.manifest.write(out)
    for engine in ENGINES:
        print(
            f"{engine:>10}: {len(results[engine])} users, "
            f"{n_events} events in {walls[engine]:.3f}s "
            f"= {rates[engine]:,.0f} events/s"
        )
    print(
        f"speedup {speedup:.2f}x (identical={identical}); "
        f"wrote manifest to {path}"
    )
    if not identical:
        raise SystemExit("FATAL: vectorized replay diverged from scalar")
    if speedup < min_speedup:
        raise SystemExit(
            f"FATAL: speedup {speedup:.2f}x below the "
            f"{min_speedup:.1f}x floor"
        )
    return recorder.manifest.to_dict()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", choices=("paper", "default"), default="paper"
    )
    parser.add_argument("--users-per-class", type=int, default=100)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--min-speedup", type=float, default=None, metavar="X",
        help="fail below this speedup (default: 10 at paper scale, "
        "0 at default scale)",
    )
    parser.add_argument(
        "--out", default="manifests/replay_throughput.json",
        help="manifest destination path",
    )
    args = parser.parse_args(argv)
    min_speedup = args.min_speedup
    if min_speedup is None:
        min_speedup = 10.0 if args.scale == "paper" else 0.0
    run(args.scale, args.users_per_class, args.seed, args.out, min_speedup)
    return 0


if __name__ == "__main__":
    sys.exit(main())
