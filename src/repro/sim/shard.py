"""Sharded parallel dispatch for the replay harness.

:func:`run_sharded_mode` partitions the (user class, user id) work list
of one cache mode into contiguous shards and replays them on a
``multiprocessing`` pool.  Design constraints:

* **Bit-identical results.**  Workers run the exact same per-user
  function as the serial path (:func:`repro.sim.replay.replay_one_user`),
  whose result depends only on its inputs, and the parent reassembles
  shard outputs in shard order (``Pool.map`` preserves task order), so
  the merged user list is byte-for-byte the serial list no matter how
  the OS schedules workers.
* **One payload per worker, not per shard.**  The log, cache content,
  and pre-mined daily contents are pickled once into each worker via the
  pool initializer; shard tasks carry only index lists.
* **Observability.**  Each shard reports its wall time; the parent
  emits a ``replay_shard`` trace event per shard and a ``merge_shards``
  span, and returns summary stats for the mode span / run manifests.
"""

from __future__ import annotations

import math
import multiprocessing
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.logs.generator import SearchLog
from repro.logs.schema import UserClass
from repro.obs.trace import get_tracer
from repro.pocketsearch.content import CacheContent
from repro.sim.replay import ReplayConfig, UserReplayResult, replay_one_user

#: Auto-sized shards per worker: small enough to balance load across the
#: pool, large enough to amortize per-task dispatch.
SHARDS_PER_WORKER = 4

#: Worker-process state installed by :func:`_init_worker`.
_WORKER_STATE: Dict[str, Any] = {}


def partition_shards(
    work: Sequence[Tuple[UserClass, int]], shard_size: int
) -> List[List[Tuple[UserClass, int]]]:
    """Split the work list into contiguous shards of ``shard_size``."""
    if shard_size <= 0:
        raise ValueError(f"shard_size must be positive, got {shard_size}")
    work = list(work)
    return [work[i: i + shard_size] for i in range(0, len(work), shard_size)]


def resolve_shard_size(n_work: int, workers: int) -> int:
    """Users per shard: about :data:`SHARDS_PER_WORKER` shards per
    worker.  Affects scheduling only, never results."""
    return max(1, math.ceil(n_work / (workers * SHARDS_PER_WORKER)))


def _init_worker(
    log: SearchLog,
    content: Optional[CacheContent],
    daily_contents: List[CacheContent],
    config: ReplayConfig,
    t_start: float,
    t_end: float,
) -> None:
    """Install the read-only replay inputs in a pool worker.

    Also forces the no-op tracer: a forked worker would otherwise inherit
    the parent's recording tracer and accumulate spans that die with the
    process.  Untraced, workers serve users on the batch engine even in
    a traced run.
    """
    from repro.obs import trace

    trace.set_tracer(trace.NULL_TRACER)
    _WORKER_STATE.update(
        log=log,
        content=content,
        daily_contents=daily_contents,
        config=config,
        t_start=t_start,
        t_end=t_end,
    )


def _run_shard(
    task: Tuple[int, str, List[Tuple[UserClass, int]]],
) -> Tuple[int, float, List[UserReplayResult]]:
    """Replay one shard in a worker; returns (index, wall seconds, users)."""
    shard_index, mode, pairs = task
    state = _WORKER_STATE
    t0 = time.perf_counter()
    users = [
        replay_one_user(
            state["log"],
            state["content"],
            state["daily_contents"],
            state["config"],
            mode,
            user_class,
            uid,
            state["t_start"],
            state["t_end"],
        )
        for user_class, uid in pairs
    ]
    return shard_index, time.perf_counter() - t0, users


def run_sharded_mode(
    log: SearchLog,
    content: Optional[CacheContent],
    daily_contents: List[CacheContent],
    config: ReplayConfig,
    mode: str,
    work: Sequence[Tuple[UserClass, int]],
    t_start: float,
    t_end: float,
) -> Tuple[List[UserReplayResult], Dict[str, Any]]:
    """Replay one mode's users across a worker pool.

    Returns the per-user results in the exact order of ``work`` plus a
    stats dict (shard count/sizes, per-shard wall times, merge overhead)
    for the mode span and run manifests.
    """
    tracer = get_tracer()
    shard_size = resolve_shard_size(len(work), config.workers)
    shards = partition_shards(work, shard_size)
    tasks = [(i, mode, shard) for i, shard in enumerate(shards)]
    n_procs = min(config.workers, len(shards))

    t0 = time.perf_counter()
    ctx = multiprocessing.get_context()
    with ctx.Pool(
        processes=n_procs,
        initializer=_init_worker,
        initargs=(log, content, daily_contents, config, t_start, t_end),
    ) as pool:
        shard_results = pool.map(_run_shard, tasks, chunksize=1)
    pool_wall_s = time.perf_counter() - t0

    shard_wall_s: List[float] = []
    users: List[UserReplayResult] = []
    merge_t0 = time.perf_counter()
    with tracer.span("merge_shards", mode=mode, n_shards=len(shards)) as span:
        # Pool.map returns results in task order; the index is kept as a
        # belt-and-braces invariant check on the deterministic merge.
        for expected, (shard_index, wall_s, shard_users) in enumerate(
            shard_results
        ):
            if shard_index != expected:
                raise RuntimeError(
                    f"shard results arrived out of order: got {shard_index}, "
                    f"expected {expected}"
                )
            shard_wall_s.append(wall_s)
            tracer.event(
                "replay_shard",
                mode=mode,
                shard=shard_index,
                n_users=len(shard_users),
                wall_s=wall_s,
            )
            users.extend(shard_users)
        merge_s = time.perf_counter() - merge_t0
        span.set_attr("merge_s", merge_s)

    stats = {
        "workers": n_procs,
        "n_shards": len(shards),
        "shard_size": shard_size,
        "shard_wall_s": [round(w, 6) for w in shard_wall_s],
        "pool_wall_s": round(pool_wall_s, 6),
        "merge_s": round(merge_s, 6),
    }
    return users, stats
