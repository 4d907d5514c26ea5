"""The batch engine's universe cache never serves a freed content's
universe.

``ReplayUniverse`` mirrors one (log, content, mode) and is cached under
the ``id()`` of each.  An id is only unique while its object lives, so
the cache keeps the content next to its universe: a content freed after
its replay would otherwise leave its key behind, and the next content
allocated at the same address would be served the old universe.
"""

import pytest

from repro.pocketsearch.content import CacheContent, build_cache_content
from repro.pocketsearch.engine import PocketSearchEngine
from repro.sim import vectorized
from repro.sim.replay import (
    CacheMode,
    ReplayConfig,
    make_cache,
    replay_user,
    select_replay_users,
)

from tests.sim.test_vectorized_seams import T_END, T_START

# Community-only hits depend on nothing but the content.
MODE = CacheMode.COMMUNITY_ONLY


@pytest.fixture(scope="module")
def month0_content(request):
    small_log = request.getfixturevalue("small_log")
    config = ReplayConfig()
    return build_cache_content(
        small_log.month(config.build_month), config.policy
    )


@pytest.fixture(scope="module")
def busiest_user(request):
    small_log = request.getfixturevalue("small_log")
    selected = select_replay_users(small_log, 1, 3)
    return max(
        (uid for uids in selected.values() for uid in uids),
        key=lambda uid: small_log.for_user(uid).window(T_START, T_END).n_events,
    )


@pytest.mark.parametrize("eighths", [8, 6, 4, 3])
def test_replacement_content_gets_its_own_universe(
    small_log, month0_content, busiest_user, eighths
):
    vectorized.clear_caches()
    entries = month0_content.entries
    first = CacheContent(
        entries=entries[: len(entries) * eighths // 8],
        total_log_volume=month0_content.total_log_volume,
    )
    vectorized.replay_user_vectorized(
        small_log, first, None, MODE, busiest_user, T_START, T_END
    )
    kept = first.entries[: len(first.entries) // 8]
    # No gc.collect(): the refcount frees the content here, and the next
    # CacheContent may be allocated at its address.
    del first
    second = CacheContent(
        entries=kept, total_log_volume=month0_content.total_log_volume
    )
    got = vectorized.replay_user_vectorized(
        small_log, second, None, MODE, busiest_user, T_START, T_END
    )
    want = replay_user(
        PocketSearchEngine(make_cache(second, MODE)),
        small_log, busiest_user, T_START, T_END,
    )
    assert got.outcomes == want.outcomes
