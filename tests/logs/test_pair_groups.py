"""``PairGroups.redraw`` equals the per-event ``rng.choice`` loop bit for bit.

``generate_logs`` re-draws switched staple events within their sibling or
variant group in one batch per user-month.  The synthetic logs, and every
output downstream of them, are pinned to the draws of the per-event loop
that batch replaced::

    ids, probs = <the pair's group, found by a mask scan>
    if len(ids) > 1:
        pair = ids[rng.choice(len(ids), p=probs)]

These tests keep that loop as the reference.  On random groups of 1-12
pairs (below, at and above the 8 terms from which ``ndarray.sum`` adds
pairwise) the picks and the generator state after them must match; on the
small community every group must equal the mask scan.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.logs.popularity import PairGroups


def scan_group(pair_topic, pair_key, pair_prob, pair_id):
    """(ids, normalized probabilities) of ``pair_id``'s group by mask scan."""
    mask = (pair_topic == pair_topic[pair_id]) & (pair_key == pair_key[pair_id])
    ids = np.flatnonzero(mask)
    probs = pair_prob[ids]
    return ids, probs / probs.sum()


def choice_loop(pair_topic, pair_key, pair_prob, pairs, rng):
    """Each of ``pairs`` re-drawn with one scalar ``rng.choice`` call."""
    out = pairs.copy()
    for j, pair in enumerate(pairs.tolist()):
        ids, probs = scan_group(pair_topic, pair_key, pair_prob, pair)
        if len(ids) > 1:
            out[j] = ids[rng.choice(len(ids), p=probs)]
    return out


def universe(sizes, order, exponents):
    """Pair arrays for groups of ``sizes``, pair ids scattered by ``order``.

    Groups alternate between two keys within a topic, so both sort keys
    separate groups.
    """
    group = np.repeat(np.arange(len(sizes)), sizes)[np.asarray(order)]
    prob = 10.0 ** np.asarray(exponents)
    return group // 2, (group % 2) * 7, prob / prob.sum()


@st.composite
def batches(draw):
    sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=10))
    n = sum(sizes)
    order = draw(st.permutations(range(n)))
    exponents = draw(
        st.lists(st.floats(-9.0, 0.0), min_size=n, max_size=n)
    )
    events = draw(st.lists(st.integers(0, n - 1), max_size=80))
    seed = draw(st.integers(0, 2**32 - 1))
    return universe(sizes, order, exponents), np.asarray(events, dtype=np.int64), seed


def assert_redraw_matches(pair_topic, pair_key, pair_prob, events, seed):
    groups = PairGroups(pair_topic, pair_key, pair_prob)
    batched_rng = np.random.default_rng(seed)
    loop_rng = np.random.default_rng(seed)
    got = groups.redraw(events, batched_rng)
    want = choice_loop(pair_topic, pair_key, pair_prob, events, loop_rng)
    assert got.tolist() == want.tolist()
    assert batched_rng.bit_generator.state == loop_rng.bit_generator.state


class TestRedrawEqualsChoice:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(batches())
    def test_random_groups(self, batch):
        (pair_topic, pair_key, pair_prob), events, seed = batch
        assert_redraw_matches(pair_topic, pair_key, pair_prob, events, seed)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_size_from_1_to_12(self, seed):
        sizes = list(range(1, 13))
        n = sum(sizes)
        rng = np.random.default_rng(seed)
        pair_topic, pair_key, pair_prob = universe(
            sizes, rng.permutation(n), rng.uniform(-9.0, 0.0, n)
        )
        events = rng.integers(0, n, 2000)
        assert_redraw_matches(pair_topic, pair_key, pair_prob, events, seed)

    def test_ties_pick_the_next_pair(self):
        # ``Generator.choice`` picks ``cdf.searchsorted(u, side="right")``,
        # so a double equal to a cdf entry selects the following pair.
        # Random doubles hit a cdf entry too rarely to test this.
        groups = PairGroups(
            np.zeros(4, dtype=np.int64), np.zeros(4, dtype=np.int64), np.full(4, 0.25)
        )
        assert groups.cdf.tolist() == [0.25, 0.5, 0.75, 1.0]

        class Doubles:
            def random(self, k):
                return np.array([0.0, 0.25, 0.5, 0.75])[:k]

        pairs = np.zeros(4, dtype=np.int64)
        assert groups.redraw(pairs, Doubles()).tolist() == [0, 1, 2, 3]

    def test_no_multi_pair_group_consumes_no_draw(self):
        groups = PairGroups(np.arange(4), np.zeros(4, dtype=np.int64), np.full(4, 0.25))
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        pairs = np.array([3, 0, 2], dtype=np.int64)
        assert groups.redraw(pairs, rng).tolist() == [3, 0, 2]
        assert rng.bit_generator.state == before


@pytest.mark.parametrize(
    "kind, key", [("siblings", "pair_result"), ("variants", "pair_query")]
)
def test_groups_match_mask_scan(small_community, kind, key):
    cm = small_community
    groups = getattr(PairGroups, kind)(cm)
    pair_key = getattr(cm, key)
    assert sorted(groups.members.tolist()) == list(range(cm.n_pairs))
    for start, size in zip(groups.starts.tolist(), groups.sizes.tolist()):
        ids, probs = scan_group(
            cm.pair_topic, pair_key, cm.pair_prob, int(groups.members[start])
        )
        for pair in ids.tolist():
            got_ids, got_probs = groups.group_of(pair)
            assert got_ids.tolist() == ids.tolist()
            assert got_probs.tobytes() == probs.tobytes()
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        assert groups.cdf[start : start + size].tobytes() == cdf.tobytes()
