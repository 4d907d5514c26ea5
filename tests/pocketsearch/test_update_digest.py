"""Pin the update protocol on the per-event object model.

A daily-update replay serves each user event by event through
:func:`repro.sim.replay.replay_user`, a :class:`PocketSearchEngine` over
a ``make_cache`` cache, which runs
:meth:`CacheUpdateServer.refresh_with_content` at every day boundary.
Every :class:`UpdatePatch` is hashed, and so is each user's final table
shape (entries, footprint, wire length) and hit/miss count.  The digest
pins what a rewrite of the hash table, the cache or the update server
must leave unchanged.

Each (mode, user) is also replayed by the batch engine
(:func:`replay_user_vectorized`).  Its outcomes, and its cache state
after every refresh and after the last event, must equal the per-event
run's.

Tier-1 checks seed 7.  Seeds 1 and 4099, the logs perfbench replays, are
too slow for the suite; ``--all-seeds`` checks them, and a digest or a
batch mismatch exits 1::

    PYTHONPATH=src python -m tests.pocketsearch.test_update_digest --all-seeds
"""

import hashlib
import sys

from repro.experiments.common import default_log
from repro.logs.schema import MONTH_SECONDS
from repro.pocketsearch.content import build_cache_content
from repro.sim.replay import (
    CacheMode,
    ReplayConfig,
    _daily_contents,
    select_replay_users,
)
from repro.sim.vectorized import month_content

from tests.sim.test_vectorized_seams import batch_run, per_event_run

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


def digest_inputs(seed):
    """``(log, content, daily, selected, t_start, t_end)`` of the daily
    replay a digest pins: the default log at ``seed``, its build-month
    and daily contents, and the selected users by class."""
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
    return log, content, daily, selected, t_start, t_start + MONTH_SECONDS


def update_records(seed):
    """``(records, batch_mismatches)``.

    ``records`` holds one repr per UpdatePatch and per user's final
    state, in replay order (mode, then class and user id, then day).
    ``batch_mismatches`` names each (mode, user) whose batch replay
    differs from the per-event run in its outcomes or in its cache
    state after a refresh or after the last event.
    """
    log, content, daily, selected, t_start, t_end = digest_inputs(seed)
    records = []
    mismatches = []
    for mode in MODES:
        for user_class, uids in selected.items():
            for uid in uids:
                outcomes, states, patches, cache = per_event_run(
                    log, content, daily, mode, uid, t_start, t_end
                )
                records.extend(
                    f"{mode} {uid} day {day} {patch!r}"
                    for day, patch in enumerate(patches)
                )
                got_outcomes, got_states = batch_run(
                    log, content, daily, mode, uid, t_start, t_end
                )
                if got_outcomes != outcomes:
                    mismatches.append(f"{mode} {uid} outcomes")
                if got_states != states:
                    mismatches.append(f"{mode} {uid} states")
                table = cache.hashtable
                records.append(
                    f"{mode} {user_class.value} {uid} final "
                    f"{table.n_entries} {table.footprint_bytes} "
                    f"{len(table.serialize())} {cache.hits} {cache.misses}"
                )
    return records, mismatches


def digest(records):
    h = hashlib.sha256()
    for record in records:
        h.update(record.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest(), len(records)


def test_update_patches_match_pinned_digest():
    records, mismatches = update_records(7)
    assert digest(records) == PINNED[7]
    assert mismatches == []


def _main(argv):
    seeds = [1, 4099] if argv == ["--all-seeds"] else [7]
    failed = []
    for seed in seeds:
        records, mismatches = update_records(seed)
        got = digest(records)
        print(
            f"seed {seed}: {got[0]} ({got[1]} records), "
            f"{len(mismatches)} batch mismatches"
        )
        for mismatch in mismatches:
            print(f"  batch engine differs: {mismatch}", file=sys.stderr)
        if got != PINNED[seed] or mismatches:
            failed.append(seed)
    if failed:
        print(
            f"UpdatePatch digests or batch replays differ at seeds {failed}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
