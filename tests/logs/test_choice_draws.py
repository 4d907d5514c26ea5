"""The generator's cdf searches equal the ``rng.choice(p=...)`` calls they
replaced, bit for bit.

With replacement, ``Generator.choice(k, size=n, p=p)`` checks ``p`` and
then picks ``cdf.searchsorted(rng.random(n), side="right")`` with
``cdf = p.cumsum(); cdf /= cdf[-1]``.  ``generate_logs`` builds the
diurnal-hour cdf once and each user's staple cdf once per user, and
searches them directly.  The synthetic logs, and every output downstream
of them, are pinned to the draws of the ``choice`` calls, so these tests
keep those calls as the reference: from twin generators, the picks must
match and so must the generator states after them.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.logs.generator import (
    DIURNAL_WEIGHTS,
    GeneratorConfig,
    _DIURNAL_CDF,
    _draw_month_pairs,
    _draw_staples,
    _sample_timestamps,
)
from repro.logs.popularity import PairGroups
from repro.logs.schema import UserClass
from repro.logs.users import STAPLE_PREFERENCE_S, UserBehavior

sizes = st.integers(1, 2000)
seeds = st.integers(0, 2**32 - 1)


def choice_timestamps(volume, rng):
    """``_sample_timestamps`` with the hour drawn by ``rng.choice``."""
    days = rng.integers(0, 30, size=volume)
    hours = rng.choice(24, size=volume, p=DIURNAL_WEIGHTS / DIURNAL_WEIGHTS.sum())
    seconds = rng.uniform(0, 3600, size=volume)
    return np.sort(days * 86400.0 + hours * 3600.0 + seconds)


def assert_timestamps_match(volume, seed):
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _sample_timestamps(volume, rng)
    want = choice_timestamps(volume, twin)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == twin.bit_generator.state


class TestDiurnalHours:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(volume=sizes, seed=seeds)
    def test_random_sizes(self, volume, seed):
        assert_timestamps_match(volume, seed)

    @pytest.mark.parametrize("volume", [1, 2, 3, 24, 2000])
    def test_edge_sizes(self, volume):
        assert_timestamps_match(volume, volume)


def routine_user(n_staples, weights):
    """A user whose every event is a staple event."""
    return UserBehavior(
        user_id=0,
        user_class=UserClass.MEDIUM,
        device="smartphone",
        mean_monthly_volume=100.0,
        routine_prob=1.0,
        n_staples=n_staples,
        explore_tilt=1.0,
        unique_tail_prob=0.0,
        staple_weights=weights / weights.sum(),
    )


def alone(community):
    """Groupings of ``community`` with every pair alone in its group, so a
    switched event re-draws nothing and consumes no draw."""
    return PairGroups(
        np.arange(community.n_pairs),
        np.zeros(community.n_pairs, dtype=np.int64),
        community.pair_prob,
    )


def assert_staple_picks_match(community, n_staples, weights, volume, seed):
    """The month's pairs are the staples ``rng.choice`` picks.

    Every event is routine and no switch re-draws, so the alias and result
    switches only draw their masks.
    """
    user = routine_user(n_staples, weights)
    groups = alone(community)
    config = GeneratorConfig()
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)

    staples, staple_cdf = _draw_staples(user, community, rng, desktop=False)
    pairs, _ = _draw_month_pairs(
        user, staples, staple_cdf, volume, community, groups, groups, rng, config, 0
    )

    twin_staples, _ = _draw_staples(user, community, twin, desktop=False)
    twin.random(volume)  # routine or explore, per event
    staple_weights = user.staple_weights[:n_staples]
    picks = twin.choice(
        n_staples, size=volume, p=staple_weights / staple_weights.sum()
    )
    twin.random(volume)  # the alias switches
    twin.random(volume)  # the result switches

    assert staples.tolist() == twin_staples.tolist()
    assert pairs.tolist() == twin_staples[picks].tolist()
    assert rng.bit_generator.state == twin.bit_generator.state


class TestStaplePick:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        n_staples=st.integers(2, 60),
        exponents=st.lists(st.floats(-9.0, 0.0), min_size=60, max_size=60),
        volume=sizes,
        seed=seeds,
    )
    def test_random_staples(self, small_community, n_staples, exponents, volume, seed):
        weights = 10.0 ** np.asarray(exponents[:n_staples])
        assert_staple_picks_match(small_community, n_staples, weights, volume, seed)

    @pytest.mark.parametrize("n_staples", range(2, 61))
    def test_every_staple_count_with_zipf_weights(self, small_community, n_staples):
        # The population's own weights: Zipf over the user's staples.
        weights = np.arange(1, n_staples + 1, dtype=float) ** -STAPLE_PREFERENCE_S
        assert_staple_picks_match(small_community, n_staples, weights, 500, n_staples)


def choice_cdf(p):
    """The cdf ``rng.choice(len(p), p=p)`` searches."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


class Doubles:
    """Stands in for a generator: ``random(k)`` hands out the next of the
    given arrays; ``integers`` and ``uniform`` draw zeros."""

    def __init__(self, *arrays):
        self.arrays = list(arrays)

    def random(self, k):
        out = self.arrays.pop(0)
        assert len(out) == k
        return out

    def integers(self, low, high, size):
        return np.zeros(size, dtype=np.int64)

    def uniform(self, low, high, size):
        return np.zeros(size)


class TestTies:
    # ``choice`` picks ``cdf.searchsorted(u, side="right")``, so a double
    # equal to a cdf entry selects the following item.  Random doubles hit
    # a cdf entry too rarely to test this, so the doubles here are the cdf
    # entries themselves, and the cdfs must be ``choice``'s to the bit.

    def test_diurnal_hours(self):
        p = DIURNAL_WEIGHTS / DIURNAL_WEIGHTS.sum()
        assert _DIURNAL_CDF.tobytes() == choice_cdf(p).tobytes()
        times = _sample_timestamps(23, Doubles(_DIURNAL_CDF[:23]))
        assert times.tolist() == [3600.0 * h for h in range(1, 24)]

    def test_staple_pick(self, small_community):
        n = 7
        weights = np.arange(1, n + 1, dtype=float) ** -STAPLE_PREFERENCE_S
        user = routine_user(n, weights)
        rng = np.random.default_rng(3)
        staples, staple_cdf = _draw_staples(user, small_community, rng, desktop=False)
        p = user.staple_weights[:n] / user.staple_weights[:n].sum()
        assert staple_cdf.tobytes() == choice_cdf(p).tobytes()
        # Every event routine, then the cdf entries as the pick's doubles,
        # then neither an alias nor a result switch.
        no_switch = np.full(n - 1, 0.99)
        doubles = Doubles(np.zeros(n - 1), staple_cdf[:-1], no_switch, no_switch)
        groups = alone(small_community)
        pairs, _ = _draw_month_pairs(
            user, staples, staple_cdf, n - 1, small_community, groups, groups,
            doubles, GeneratorConfig(), 0,
        )
        assert pairs.tolist() == staples[1:].tolist()
