"""Pin the update protocol on the per-event object model.

A daily-update replay serves each user event by event through a
:class:`PocketSearchEngine` over a ``make_cache`` cache and runs
:meth:`CacheUpdateServer.refresh_with_content` at every day boundary,
as :func:`repro.sim.replay.replay_user` does.  Every :class:`UpdatePatch`
is hashed, and so is each user's final table shape (entries, footprint,
wire length) and hit/miss count.  The digest pins what a rewrite of the
hash table, the cache or the update server must leave unchanged.

Tier-1 checks seed 7.  Seeds 1 and 4099 are too slow for the suite;
``--all-seeds`` checks them, and a mismatch exits 1::

    PYTHONPATH=src python -m tests.pocketsearch.test_update_digest --all-seeds
"""

import hashlib
import sys

from repro.experiments.common import default_log
from repro.logs.schema import MONTH_SECONDS
from repro.pocketsearch.content import build_cache_content, result_record_bytes
from repro.pocketsearch.engine import PocketSearchEngine
from repro.pocketsearch.manager import CacheUpdateServer
from repro.sim.replay import (
    DAY_SECONDS,
    CacheMode,
    ReplayConfig,
    _daily_contents,
    make_cache,
    select_replay_users,
)
from repro.sim.vectorized import month_content

USERS_PER_CLASS = 3
MODES = (CacheMode.FULL, CacheMode.COMMUNITY_ONLY)

#: seed -> (sha256 of the record stream, record count)
PINNED = {
    7: ("a4ba270519f0d1d14cd1e810c84c6df1ae005d553cd8aa1db4cd7f208ec0e7b9", 740),
    1: ("eb9f4d36b79d342e31121ebccdf804f637947fd5b9144722f780b12547c7229a", 742),
    4099: (
        "22a9b44c2edeff6e7329a8fb6b287359e8f81e591c7d294b4276a9a7dcce3bf9",
        742,
    ),
}


def update_records(seed):
    """One repr per UpdatePatch and per user's final state, in replay
    order (mode, then class and user id, then day)."""
    log = default_log(seed=seed)
    config = ReplayConfig(users_per_class=USERS_PER_CLASS, daily_updates=True)
    content = month_content(
        log, config.build_month, config.policy, build_cache_content
    )
    daily = _daily_contents(log, config)
    selected = select_replay_users(
        log, config.replay_month, USERS_PER_CLASS, config.seed
    )
    t_start = config.replay_month * MONTH_SECONDS
    records = []
    for mode in MODES:
        for user_class, uids in selected.items():
            for uid in uids:
                cache = make_cache(content, mode)
                engine = PocketSearchEngine(cache)
                server = CacheUpdateServer()
                stream = log.for_user(uid).window(
                    t_start, t_start + MONTH_SECONDS
                )
                day = 0
                for i in range(stream.n_events):
                    t = float(stream.timestamps[i])
                    event_day = min(
                        int((t - t_start) // DAY_SECONDS), len(daily) - 1
                    )
                    while day <= event_day:
                        patch = server.refresh_with_content(cache, daily[day])
                        records.append(f"{mode} {uid} day {day} {patch!r}")
                        day += 1
                    rkey = int(stream.result_keys[i])
                    engine.serve_query(
                        query=stream.query_string(int(stream.query_keys[i])),
                        clicked_url=stream.result_url(rkey),
                        record_bytes=result_record_bytes(stream, rkey),
                        navigational=bool(stream.navigational[i]),
                        timestamp=t,
                    )
                table = cache.hashtable
                records.append(
                    f"{mode} {user_class.value} {uid} final "
                    f"{table.n_entries} {table.footprint_bytes} "
                    f"{len(table.serialize())} {cache.hits} {cache.misses}"
                )
    return records


def digest(records):
    h = hashlib.sha256()
    for record in records:
        h.update(record.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest(), len(records)


def test_update_patches_match_pinned_digest():
    assert digest(update_records(7)) == PINNED[7]


def _main(argv):
    seeds = [1, 4099] if argv == ["--all-seeds"] else [7]
    failed = []
    for seed in seeds:
        got = digest(update_records(seed))
        print(f"seed {seed}: {got[0]} ({got[1]} records)")
        if got != PINNED[seed]:
            failed.append(seed)
    if failed:
        print(f"UpdatePatch digests differ at seeds {failed}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
