"""Columnar event-batch properties (builder for the vectorized engine).

Two contracts, property-tested over small generated universes:

1. **Lossless round trip** — ``SearchLog`` → struct array →
   ``QueryEvent`` list reproduces ``log.events()`` exactly, field for
   field, in order.
2. **No same-user reordering** — however a batch windows and sorts,
   each user's events stay in original log (time) order.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.logs.columnar import (
    EVENT_DTYPE,
    ColumnarEventBatch,
    events_from_struct,
    log_to_struct_array,
)
from repro.logs.generator import GeneratorConfig, generate_logs
from repro.logs.popularity import CommunityModel
from repro.logs.schema import MONTH_SECONDS
from repro.logs.users import PopulationConfig, UserPopulation
from repro.logs.vocabulary import Vocabulary, VocabularyConfig


def _tiny_log(nav, non_nav, users, months, seed):
    community = CommunityModel(
        Vocabulary.build(
            VocabularyConfig(n_nav_topics=nav, n_non_nav_topics=non_nav)
        )
    )
    population = UserPopulation.build(
        PopulationConfig(n_users=users, seed=seed)
    )
    return generate_logs(
        community, population, GeneratorConfig(months=months, seed=seed)
    )


@st.composite
def tiny_worlds(draw):
    nav = draw(st.integers(min_value=20, max_value=60))
    non_nav = draw(st.integers(min_value=20, max_value=60))
    users = draw(st.integers(min_value=5, max_value=20))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return nav, non_nav, users, seed


@given(world=tiny_worlds())
@settings(max_examples=10, deadline=None)
def test_struct_array_round_trip_is_lossless(world):
    nav, non_nav, users, seed = world
    log = _tiny_log(nav, non_nav, users, 1, seed)
    struct = log_to_struct_array(log)
    assert struct.dtype == EVENT_DTYPE
    assert len(struct) == log.n_events
    # Column-level identity with the log's arrays (row order preserved).
    assert (struct["user_id"] == log.user_ids).all()
    assert (struct["timestamp"] == log.timestamps).all()
    assert (struct["query_key"] == log.query_keys).all()
    assert (struct["result_key"] == log.result_keys).all()
    assert (struct["navigational"] == log.navigational).all()
    # Event-level identity through the string tables.
    round_tripped = events_from_struct(log, struct)
    assert round_tripped == list(log.events())


@given(world=tiny_worlds())
@settings(max_examples=10, deadline=None)
def test_batch_never_reorders_same_user_events(world):
    nav, non_nav, users, seed = world
    log = _tiny_log(nav, non_nav, users, 1, seed)
    batch = ColumnarEventBatch.from_log(log)
    assert batch.n_events == log.n_events
    for uid in batch.user_ids:
        rows = batch.for_user(uid)
        # Strictly the user's own events, in original log order — which
        # for the generator means non-decreasing timestamps.
        assert (rows["user_id"] == uid).all()
        original = log.timestamps[log.user_ids == uid]
        assert (rows["timestamp"] == original).all()
        # A windowed batch preserves relative order too.
        lo = float(np.median(original))
        windowed = ColumnarEventBatch.from_log(log, t_start=lo).for_user(uid)
        assert (windowed["timestamp"] == original[original >= lo]).all()


class TestBatchEdgeCases:
    def test_empty_window(self, small_log):
        batch = ColumnarEventBatch.from_log(
            small_log, t_start=99 * MONTH_SECONDS
        )
        assert batch.n_events == 0
        assert batch.user_ids == []

    def test_unknown_user_yields_empty_slice(self, small_log):
        batch = ColumnarEventBatch.from_log(small_log)
        rows = batch.for_user(10**9)
        assert len(rows) == 0
        assert rows.dtype == EVENT_DTYPE
