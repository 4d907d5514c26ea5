"""Parity of the sliding trailing-window miner with per-window builds.

``build_trailing_contents`` mines many equal-width windows in one pass
over the log; ``build_cache_content`` over ``log.window`` is the
single-window reference.  For each of the five :class:`ContentPolicy`
kinds, Hypothesis draws a threshold, window ends (repeats, ends before
the first event and past the last, ends and starts on event timestamps)
and widths that leave gaps between windows or make them overlap.  Every
mined content must equal the reference entry for entry, with the same
total and covered volume.

A mined content keeps its pairs as key columns: it builds no
:class:`CacheEntry` until its entries are read, holds no reference to
the mined window, and reads equal to the pair-by-pair walk that built
every entry as it took the pair.
"""

import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.common import default_log
from repro.logs.schema import MONTH_SECONDS
from repro.pocketsearch.content import (
    CacheEntry,
    ContentPolicy,
    build_cache_content,
    build_trailing_contents,
)
from repro.sim.replay import DAY_SECONDS, ReplayConfig, _daily_contents

from tests.pocketsearch.test_select_pairs import (
    reference_select_pairs,
    walk_inputs,
)

#: The tier-1 profile: derandomized, with a bounded example count.
PARITY = settings(max_examples=50, deadline=None, derandomize=True)

#: How far past the log's first and last events window ends may fall.
MARGIN_S = 3 * DAY_SECONDS

#: The threshold each ContentPolicy kind takes.
THRESHOLDS = {
    "target_coverage": st.floats(0.05, 1.0),
    "saturation_volume": st.floats(1e-5, 1e-2),
    "max_flash_bytes": st.integers(0, 200_000),
    "max_dram_bytes": st.integers(0, 40_000),
    "max_pairs": st.integers(0, 3_000),
}


@st.composite
def windows(draw, log):
    """``(t_ends, width)``: 1-6 non-decreasing ends and a width that
    either leaves a gap between consecutive distinct windows or makes
    them all overlap.  Ends fall on event timestamps or anywhere from
    ``MARGIN_S`` before the first event to ``MARGIN_S`` past the last."""
    timestamps = log.timestamps.tolist()
    lo, hi = min(timestamps) - MARGIN_S, max(timestamps) + MARGIN_S
    end = st.one_of(st.floats(lo, hi), st.sampled_from(timestamps))
    ends = draw(st.lists(end, min_size=1, max_size=5), label="ends")
    if draw(st.booleans(), label="repeat"):
        ends.append(draw(st.sampled_from(ends)))
    ends.sort()
    gaps = [b - a for a, b in zip(ends, ends[1:]) if b > a]
    if not gaps:
        width = draw(st.floats(1.0, 2 * MONTH_SECONDS), label="width")
    elif draw(st.booleans(), label="gapped"):
        width = min(gaps) * draw(st.floats(0.05, 0.95), label="scale")
    else:
        width = max(gaps) * draw(st.floats(1.05, 3.0), label="scale")
    if draw(st.booleans(), label="start on an event"):
        # Shift every end so the first start lies on an event timestamp,
        # the edge of the >= test.
        shift = draw(st.sampled_from(timestamps)) - (ends[0] - width)
        ends = [e + shift for e in ends]
    return ends, width


def _assert_same(mined, expected):
    assert len(mined) == len(expected)
    for got, want in zip(mined, expected):
        assert got.entries == want.entries
        assert got.total_log_volume == want.total_log_volume
        assert got.covered_volume == want.covered_volume


def _per_window(log, t_ends, width, policy):
    return [
        build_cache_content(log.window(end - width, end), policy)
        for end in t_ends
    ]


class TestTrailingParity:
    @pytest.mark.parametrize("kind", sorted(THRESHOLDS))
    @PARITY
    @given(data=st.data())
    def test_matches_per_window_builds(self, small_log, kind, data):
        t_ends, width = data.draw(windows(small_log), label="windows")
        policy = ContentPolicy(
            **{kind: data.draw(THRESHOLDS[kind], label="threshold")}
        )
        _assert_same(
            build_trailing_contents(small_log, t_ends, width, policy),
            _per_window(small_log, t_ends, width, policy),
        )

    def test_default_log_daily_windows(self):
        log = default_log()
        config = ReplayConfig(daily_updates=True)
        t_replay = config.replay_month * MONTH_SECONDS
        t_ends = [t_replay + day * DAY_SECONDS for day in range(30)]
        _assert_same(
            _daily_contents(log, config),
            _per_window(log, t_ends, MONTH_SECONDS, config.policy),
        )


class TestTrailingInputs:
    def test_no_windows(self, small_log):
        assert build_trailing_contents(small_log, [], DAY_SECONDS) == []

    def test_rejects_decreasing_ends(self, small_log):
        with pytest.raises(ValueError, match="non-decreasing"):
            build_trailing_contents(small_log, [2.0, 1.0], DAY_SECONDS)

    @pytest.mark.parametrize("width", [0.0, -1.0])
    def test_rejects_non_positive_width(self, small_log, width):
        with pytest.raises(ValueError, match="width"):
            build_trailing_contents(small_log, [1.0], width)


def _daily_ends(config):
    t_replay = config.replay_month * MONTH_SECONDS
    return [t_replay + day * DAY_SECONDS for day in range(30)]


class TestMinedContentsHoldColumns:
    def test_no_entry_objects_until_read(self, small_log, monkeypatch):
        built = []
        post_init = CacheEntry.__post_init__

        def counted(entry):
            built.append(entry)
            post_init(entry)

        monkeypatch.setattr(CacheEntry, "__post_init__", counted)
        config = ReplayConfig(daily_updates=True)
        mined = [
            build_cache_content(small_log.month(0), config.policy),
            *_daily_contents(small_log, config),
        ]
        volumes = [
            (c.n_pairs, c.covered_volume, c.total_log_volume) for c in mined
        ]
        assert built == []
        assert sum(len(c.entries) for c in mined) == len(built) > 0
        assert volumes == [
            (len(c.entries), sum(e.volume for e in c.entries),
             c.total_log_volume)
            for c in mined
        ]

    def test_mined_window_is_freed(self, small_log):
        config = ReplayConfig(daily_updates=True)
        window = small_log.month(0)
        month0 = weakref.ref(window)
        content = build_cache_content(window, config.policy)
        del window
        assert month0() is None

        span = small_log.window(0.0, 2 * MONTH_SECONDS)
        spanned = weakref.ref(span)
        daily = build_trailing_contents(
            span, _daily_ends(config), MONTH_SECONDS, config.policy
        )
        del span
        assert spanned() is None
        assert content.entries and all(c.entries for c in daily)

    @pytest.mark.parametrize("seed", [1, 7, 4099])
    def test_equal_to_eager_walk(self, seed):
        """Month 0 under the paper's policy and under a flash budget that
        takes repeated URLs, and the 30 daily windows, at the default
        log of each perfbench seed."""
        log = default_log(seed=seed)
        config = ReplayConfig(daily_updates=True)
        month0 = log.month(0)
        flash = ContentPolicy(max_flash_bytes=100_000)

        def eager(window, policy):
            return reference_select_pairs(
                window, *walk_inputs(window), policy
            )

        by_flash = eager(month0, flash)
        urls = [e.url for e in by_flash.entries]
        assert len(set(urls)) < len(urls)  # a URL is taken twice
        _assert_same(
            [build_cache_content(month0, p) for p in (config.policy, flash)],
            [eager(month0, config.policy), by_flash],
        )
        _assert_same(
            _daily_contents(log, config),
            [
                eager(log.window(end - MONTH_SECONDS, end), config.policy)
                for end in _daily_ends(config)
            ],
        )
