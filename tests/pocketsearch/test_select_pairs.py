"""The Section 5.1 selection walk against the pair-by-pair reference.

``_select_pairs`` finds where its walk stops with array expressions and
builds the entries from columns.  :func:`reference_select_pairs` below is
the walk it replaced, which reads one pair at a time and tests every
threshold on each pair; it is kept here as the reference.  Hypothesis
draws windows of the small log and :class:`ContentPolicy` values of
every kind, mixes in which two thresholds bind within a few pairs of
each other, and flash budgets that a new URL crosses right after pairs
that reuse an already-taken URL (those pairs add no bytes).  Both walks
must return equal contents: the same entries and total volume.
"""

import math
from typing import Dict, List

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.logs.schema import MONTH_SECONDS
from repro.pocketsearch.content import (
    APPROX_DRAM_BYTES_PER_PAIR,
    CacheContent,
    CacheEntry,
    ContentPolicy,
    _select_pairs,
    _volume_order,
    result_record_bytes,
)
from repro.sim.replay import DAY_SECONDS

#: The tier-1 profile: derandomized, with a bounded example count.
PARITY = settings(max_examples=60, deadline=None, derandomize=True)

#: The threshold each ContentPolicy kind takes on its own.
THRESHOLDS = {
    "target_coverage": st.floats(0.05, 1.0),
    "saturation_volume": st.floats(1e-5, 1e-2),
    "max_flash_bytes": st.integers(0, 200_000),
    "max_dram_bytes": st.integers(0, 40_000),
    "max_pairs": st.integers(0, 3_000),
}

#: How far apart two binding thresholds may fall, in pairs.
NEAR = 3


def reference_select_pairs(
    log,
    counts: np.ndarray,
    rows: np.ndarray,
    query_totals: np.ndarray,
    policy: ContentPolicy,
) -> CacheContent:
    """The Section 5.1 selection walk over one window's pairs.

    The arrays are aligned, one element per pair present in the window,
    in ascending pair id: ``counts`` is the pair's volume (int64),
    ``rows`` any row of ``log`` holding the pair, and ``query_totals``
    the window volume of the pair's query.
    """
    if not len(counts):
        return CacheContent(entries=[], total_log_volume=0)
    order = _volume_order(counts)
    volumes = counts[order]
    rows = rows[order]
    query_totals = query_totals[order]
    total_volume = int(volumes.sum())

    entries: List[CacheEntry] = []
    covered = 0
    flash_bytes = 0
    seen_urls: Dict[str, bool] = {}
    for i in range(len(order)):
        volume = int(volumes[i])
        normalized = volume / total_volume
        if (
            policy.saturation_volume is not None
            and normalized < policy.saturation_volume
        ):
            break
        if policy.max_pairs is not None and len(entries) >= policy.max_pairs:
            break
        if (
            policy.target_coverage is not None
            and covered / total_volume >= policy.target_coverage
        ):
            break
        row = rows[i]
        rkey = int(log.result_keys[row])
        url = log.result_url(rkey)
        record_bytes = result_record_bytes(log, rkey)
        added_flash = 0 if url in seen_urls else record_bytes
        if (
            policy.max_flash_bytes is not None
            and flash_bytes + added_flash > policy.max_flash_bytes
        ):
            break
        if (
            policy.max_dram_bytes is not None
            and (len(entries) + 1) * APPROX_DRAM_BYTES_PER_PAIR
            > policy.max_dram_bytes
        ):
            break
        entries.append(
            CacheEntry(
                query=log.query_string(int(log.query_keys[row])),
                url=url,
                volume=volume,
                score=volume / int(query_totals[i]),
                navigational=bool(log.navigational[row]),
                record_bytes=record_bytes,
            )
        )
        covered += volume
        flash_bytes += added_flash
        seen_urls[url] = True

    return CacheContent(entries=entries, total_log_volume=total_volume)


def walk_inputs(window):
    """``(counts, rows, query_totals)`` of a window, as
    ``build_cache_content`` hands them to the walk."""
    _, rows, counts = np.unique(
        window.pair_ids, return_index=True, return_counts=True
    )
    queries, query_of_pair = np.unique(
        window.query_keys[rows], return_inverse=True
    )
    query_totals = np.zeros(len(queries), dtype=np.int64)
    np.add.at(query_totals, query_of_pair, counts)
    return counts, rows, query_totals[query_of_pair]


@st.composite
def windows(draw, log):
    """A window of the small log, from an hour to two months wide,
    starting anywhere from a day before its first event."""
    timestamps = log.timestamps
    lo = float(timestamps.min()) - DAY_SECONDS
    start = draw(st.floats(lo, float(timestamps.max())), label="start")
    width = draw(st.floats(3600.0, 2 * MONTH_SECONDS), label="width")
    return log.window(start, start + width)


class _Walk:
    """The unbounded walk of one window: every pair in volume order,
    with the cumulative volume and flash bytes before each pair."""

    def __init__(self, window, inputs):
        counts = inputs[0]
        full = reference_select_pairs(
            window, *inputs, ContentPolicy(max_pairs=len(counts))
        )
        self.entries = full.entries
        self.total = full.total_log_volume
        self.covered_before = [0]
        self.flash_before = [0]
        self.added_flash = []
        seen = set()
        for entry in self.entries:
            added = 0 if entry.url in seen else entry.record_bytes
            seen.add(entry.url)
            self.added_flash.append(added)
            self.covered_before.append(self.covered_before[-1] + entry.volume)
            self.flash_before.append(self.flash_before[-1] + added)

    def binding_at(self, kind: str, j: int, slack: int):
        """A ``kind`` threshold that first stops the walk at pair ``j``,
        or at the nearest pair after it the kind can stop at."""
        n = len(self.entries)
        if kind == "max_pairs":
            return j
        if kind == "max_dram_bytes":
            return j * APPROX_DRAM_BYTES_PER_PAIR + slack % (
                APPROX_DRAM_BYTES_PER_PAIR
            )
        if kind == "max_flash_bytes":
            return self.flash_before[j]
        if kind == "target_coverage":
            j = min(max(j, 1), n)
            return self.covered_before[j] / self.total
        # saturation_volume: pair j's normalized volume stops the walk at
        # the first pair less popular than pair j; the next float up, at
        # the first pair no more popular.
        normalized = self.entries[min(j, n - 1)].volume / self.total
        return math.nextafter(normalized, math.inf) if slack % 2 else normalized


def _assert_same(window, inputs, policy):
    got = _select_pairs(window, *inputs, policy)
    want = reference_select_pairs(window, *inputs, policy)
    assert got.entries == want.entries
    assert got.total_log_volume == want.total_log_volume
    assert got.covered_volume == want.covered_volume


class TestSelectionWalk:
    @PARITY
    @given(data=st.data())
    def test_single_threshold(self, small_log, data):
        window = data.draw(windows(small_log), label="window")
        kind = data.draw(st.sampled_from(sorted(THRESHOLDS)), label="kind")
        policy = ContentPolicy(
            **{kind: data.draw(THRESHOLDS[kind], label="threshold")}
        )
        _assert_same(window, walk_inputs(window), policy)

    @PARITY
    @given(data=st.data())
    def test_two_thresholds_bind_close_together(self, small_log, data):
        window = data.draw(windows(small_log), label="window")
        inputs = walk_inputs(window)
        walk = _Walk(window, inputs)
        if not walk.entries:
            _assert_same(window, inputs, ContentPolicy(max_pairs=1))
            return
        n = len(walk.entries)
        kinds = data.draw(
            st.lists(
                st.sampled_from(sorted(THRESHOLDS)),
                min_size=2, max_size=2, unique=True,
            ),
            label="kinds",
        )
        j = data.draw(st.integers(0, n), label="first binds at")
        thresholds = {}
        for kind in kinds:
            at = min(max(j + data.draw(st.integers(-NEAR, NEAR)), 0), n)
            thresholds[kind] = walk.binding_at(
                kind, at, data.draw(st.integers(0, 10**6))
            )
        _assert_same(window, inputs, ContentPolicy(**thresholds))

    @PARITY
    @given(data=st.data())
    def test_new_url_crosses_flash_after_reused_urls(self, small_log, data):
        window = data.draw(windows(small_log), label="window")
        inputs = walk_inputs(window)
        walk = _Walk(window, inputs)
        added = walk.added_flash
        crossings = [
            k for k in range(1, len(added)) if added[k] and not added[k - 1]
        ]
        if not crossings:
            _assert_same(window, inputs, ContentPolicy(max_flash_bytes=0))
            return
        k = data.draw(st.sampled_from(crossings), label="new url at")
        budget = walk.flash_before[k] + data.draw(
            st.integers(0, added[k] - 1), label="spare bytes"
        )
        policy = ContentPolicy(max_flash_bytes=budget)
        got = _select_pairs(window, *inputs, policy)
        assert len(got.entries) == k
        _assert_same(window, inputs, policy)
        # The same budget beside a threshold that binds a few pairs on.
        kind = data.draw(
            st.sampled_from(
                ["max_pairs", "max_dram_bytes", "target_coverage",
                 "saturation_volume"]
            ),
            label="second kind",
        )
        at = min(k + data.draw(st.integers(-NEAR, NEAR)), len(added))
        _assert_same(
            window,
            inputs,
            ContentPolicy(
                max_flash_bytes=budget, **{kind: walk.binding_at(kind, at, 0)}
            ),
        )

    def test_empty_window(self, small_log):
        window = small_log.window(-2.0, -1.0)
        _assert_same(window, walk_inputs(window), ContentPolicy(max_pairs=5))
