"""Parity of the sliding trailing-window miner with per-window builds.

``build_trailing_contents`` mines many equal-width windows in one pass
over the log; ``build_cache_content`` over ``log.window`` is the
single-window reference.  For each of the five :class:`ContentPolicy`
kinds, Hypothesis draws a threshold, window ends (repeats, ends before
the first event and past the last, ends and starts on event timestamps)
and widths that leave gaps between windows or make them overlap.  Every
mined content must equal the reference entry for entry, with the same
total and covered volume.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.common import default_log
from repro.logs.schema import MONTH_SECONDS
from repro.pocketsearch.content import (
    ContentPolicy,
    build_cache_content,
    build_trailing_contents,
)
from repro.sim.replay import DAY_SECONDS, ReplayConfig, _daily_contents

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
