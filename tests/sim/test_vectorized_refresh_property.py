"""Randomized parity of the vectorized daily refresh with the real server.

The vectorized engine refreshes a daily user by swapping in a per-day
plan and touching only the user's overlay and the day's churn.  Mined
daily contents never repeat a pair or come out empty, and consecutive
days differ by a few dozen pairs, so the seam tests alone leave parts of
that refresh unexercised.  Here Hypothesis draws 2-5 daily contents from
the small log's month-0 content: pairs dropped and re-added, re-scored
and reordered, a repeated (query, url) entry, an empty day.  It also
draws the retention score, so that clicked pairs age out as well.  Every
outcome of one user's vectorized replay, and the user's cache state after
every refresh and after the last event, must equal what
:func:`repro.sim.replay.replay_user` and the real
:class:`CacheUpdateServer` leave in a real cache.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.logs.schema import UserClass
from repro.pocketsearch.content import CacheContent, build_cache_content
from repro.sim import vectorized
from repro.sim.replay import CacheMode, ReplayConfig, select_replay_users

from tests.sim import test_vectorized_seams as seams
from tests.sim.test_vectorized_seams import T_START

#: Scores a re-scored or repeated entry takes: around the retention
#: score (0.05) and up to the content maximum.
SCORES = (0.0, 0.03, 0.05, 0.3, 0.75, 1.0)
#: Record sizes a repeated entry takes; the first entry's size is stored.
RECORD_BYTES = (120, 500, 4096)
#: Retention scores: the server's default, and one above a single
#: click's score, so that pairs clicked once age out at the next refresh.
RETENTION = (0.05, 1.5)

#: Daily contents per draw, at most.
MAX_DAYS = 5

#: The tier-1 profile: derandomized, with a bounded example count.
PARITY = settings(max_examples=40, deadline=None, derandomize=True)


@pytest.fixture(scope="module")
def month0_content(small_log):
    return build_cache_content(small_log.month(0), ReplayConfig().policy)


@pytest.fixture(scope="module")
def parity_users(small_log):
    """Users with tens to hundreds of replay-month events."""
    selected = select_replay_users(small_log, 1, 3)
    return selected[UserClass.MEDIUM] + selected[UserClass.HIGH]


@st.composite
def daily_contents(draw, pool, focus, total_volume):
    """2-5 days drawn from ``pool``: each drops some entries, re-scores
    some and reorders them; one day may be empty, and one lists a pair
    twice, the second time with its own score and record size.

    ``focus`` holds the pool indices of the pairs the replayed user
    clicks early enough for a refresh to retain them.  A few pairs that
    join their queries to other entries' results are added to the pool,
    so that some queries hold three or more results and scores decide
    which two a hit fetches.  Drops, re-scores and the repeat favour
    these indices.
    """
    crosses = draw(
        st.lists(
            st.tuples(st.sampled_from(focus), st.integers(0, len(pool) - 1)),
            max_size=6,
        )
        if focus
        else st.just([])
    )
    focus = focus + list(range(len(pool), len(pool) + len(crosses)))
    pool = pool + [
        replace(pool[i], url=pool[j].url, record_bytes=pool[j].record_bytes)
        for i, j in crosses
    ]
    n = len(pool)
    index = st.integers(0, n - 1)
    if focus:
        index = st.sampled_from(focus) | index
    n_days = draw(st.integers(2, MAX_DAYS))
    empty_day = draw(st.none() | st.integers(0, n_days - 1))
    repeat_day = draw(st.integers(0, n_days - 1))
    contents = []
    for day in range(n_days):
        entries = []
        if day != empty_day:
            dropped = draw(st.sets(index, max_size=n))
            keep = [i not in dropped for i in range(n)]
            scores = draw(
                st.dictionaries(index, st.sampled_from(SCORES), max_size=8)
            )
            repeat = draw(index) if day == repeat_day else None
            if repeat is not None:
                keep[repeat] = True
            order = draw(st.permutations(range(n)))
            entries = [
                replace(pool[i], score=scores[i]) if i in scores else pool[i]
                for i in order
                if keep[i]
            ]
            if repeat is not None:
                entries.insert(
                    draw(st.integers(0, len(entries))),
                    replace(
                        pool[repeat],
                        score=draw(st.sampled_from(SCORES)),
                        record_bytes=draw(st.sampled_from(RECORD_BYTES)),
                    ),
                )
        contents.append(
            CacheContent(entries=entries, total_log_volume=total_volume)
        )
    return contents


class TestRefreshParity:
    @pytest.mark.parametrize(
        "mode", [CacheMode.FULL, CacheMode.COMMUNITY_ONLY]
    )
    @PARITY
    @given(data=st.data())
    def test_outcomes_and_states_match_the_server(
        self, small_log, month0_content, parity_users, mode, data
    ):
        uid = data.draw(st.sampled_from(parity_users), label="user")
        # The pairs clicked before the last refresh a draw can hold.
        stream = small_log.for_user(uid).window(
            T_START, T_START + (MAX_DAYS - 1) * vectorized.DAY_SECONDS
        )
        clicked = {
            (stream.query_string(int(q)), stream.result_url(int(r)))
            for q, r in zip(stream.query_keys, stream.result_keys)
        }
        pool = month0_content.entries
        focus = [
            i for i, entry in enumerate(pool)
            if (entry.query, entry.url) in clicked
        ]
        daily = data.draw(
            daily_contents(pool, focus, month0_content.total_log_volume),
            label="daily",
        )
        retention = data.draw(st.sampled_from(RETENTION), label="retention")
        seams.assert_same_replay(
            small_log, month0_content, daily, mode, uid,
            retention_min_score=retention,
        )
