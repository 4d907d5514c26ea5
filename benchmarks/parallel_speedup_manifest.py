"""Serial-vs-sharded replay wall-clock comparison, recorded in a manifest.

Runs the same Section 6.2 full-cache replay twice — ``workers=1`` and
``workers=N`` — over the default-calibrated log, verifies the two
results are bit-identical, and writes a run manifest containing both
wall times, the speedup, and the per-shard timing stats the replay
layer reports.

The default ``--users-per-class 50`` selects 200 users (Table 6 has four
classes), the population the acceptance criterion targets::

    PYTHONPATH=src python benchmarks/parallel_speedup_manifest.py \
        --workers 4 --out manifests/parallel_speedup.json

Each worker unpickles the log once, and on the batch engine a user
costs milliseconds, so sharding pays only with many cores (a 2-vCPU
host measured no speed-up at ``--workers 2``); on any host the run
still proves determinism.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments.common import DEFAULT_SEED, default_log
from repro.obs import trace as obs_trace
from repro.obs.manifest import ManifestRecorder
from repro.sim.replay import CacheMode, ReplayConfig, run_replay
from repro.sim.vectorized import clear_caches


def _shard_stats(tracer) -> list:
    """Per-shard wall times captured by the replay layer's trace events."""
    return [
        {k: r.attrs[k] for k in ("mode", "shard", "n_users", "wall_s")}
        for r in tracer.records()
        if r.name == "replay_shard"
    ]


def run(users_per_class: int, workers: int, seed: int, out: str) -> dict:
    log = default_log(seed=seed)
    modes = [CacheMode.FULL]

    recorder = ManifestRecorder(
        "parallel_replay_speedup",
        config={"users_per_class": users_per_class, "workers": workers},
        seed=seed,
    )
    with recorder:
        # Both timed runs start cold: the first run's mined content and
        # batch-engine caches would otherwise serve the second.
        clear_caches()
        t0 = time.perf_counter()
        serial = run_replay(
            log,
            ReplayConfig(users_per_class=users_per_class, seed=seed),
            modes=modes,
        )[CacheMode.FULL]
        serial_s = time.perf_counter() - t0

        clear_caches()
        tracer = obs_trace.enable()
        try:
            t0 = time.perf_counter()
            parallel = run_replay(
                log,
                ReplayConfig(
                    users_per_class=users_per_class,
                    seed=seed,
                    workers=workers,
                ),
                modes=modes,
            )[CacheMode.FULL]
            parallel_s = time.perf_counter() - t0
            shards = _shard_stats(tracer)
        finally:
            obs_trace.disable()

        identical = (
            len(serial.users) == len(parallel.users)
            and all(
                a.user_id == b.user_id
                and a.metrics.count == b.metrics.count
                and a.metrics.hits == b.metrics.hits
                and a.metrics.outcomes == b.metrics.outcomes
                for a, b in zip(serial.users, parallel.users)
            )
            and serial.overall_hit_rate() == parallel.overall_hit_rate()
        )

        recorder.add_metric("n_users", len(serial.users))
        recorder.add_metric("overall_hit_rate", serial.overall_hit_rate())
        recorder.add_metric("serial_wall_s", round(serial_s, 4))
        recorder.add_metric("parallel_wall_s", round(parallel_s, 4))
        recorder.add_metric("speedup", round(serial_s / parallel_s, 4))
        recorder.add_metric("bit_identical", identical)
        recorder.add_metric("shards", shards)

    path = recorder.manifest.write(out)
    print(
        f"{len(serial.users)} users: serial {serial_s:.2f}s, "
        f"workers={workers} {parallel_s:.2f}s "
        f"(speedup {serial_s / parallel_s:.2f}x, "
        f"bit_identical={identical})"
    )
    print(f"wrote manifest to {path}")
    if not identical:
        raise SystemExit("FATAL: parallel replay diverged from serial")
    return recorder.manifest.to_dict()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--users-per-class", type=int, default=50)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--out", default="manifests/parallel_speedup.json",
        help="manifest destination path",
    )
    args = parser.parse_args(argv)
    run(args.users_per_class, args.workers, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
