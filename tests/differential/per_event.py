"""Reach the per-event replay path the way production reaches it, and
compare replays bit for bit.

``repro.sim.replay.replay_one_user`` serves users with the batch engine
unless the tracer is recording; then it serves them event by event
through a ``PocketSearchEngine`` (``repro.sim.replay.replay_user``), as
``repro trace`` and ``repro profile`` do.  The differential suites use
that path as the reference the batch engine must equal.

The contract is *bit-identity*, not statistical closeness: the same
users in the same order, the same per-query outcomes and the same
aggregate reports.  :func:`assert_replay_identical` therefore compares
with ``==`` (never ``pytest.approx``) and explicit nan handling.
"""

import math
from contextlib import contextmanager

from repro.logs.schema import MONTH_SECONDS
from repro.obs import trace

WEEK_S = 7 * 24 * 3600


@contextmanager
def per_event_replay():
    """Serve the replays run in this block event by event."""
    trace.enable()
    try:
        yield
    finally:
        trace.disable()


def _identical_scalar(a, b, context=""):
    if isinstance(a, float) and math.isnan(a):
        assert isinstance(b, float) and math.isnan(b), context
    else:
        assert a == b, f"{context}: {a!r} != {b!r}"


def _identical_mapping(a, b, context=""):
    assert a.keys() == b.keys(), context
    for key in a:
        va, vb = a[key], b[key]
        if isinstance(va, dict):
            _identical_mapping(va, vb, f"{context}[{key}]")
        else:
            _identical_scalar(va, vb, f"{context}[{key}]")


def assert_replay_identical(expected, actual):
    """Every observable of a ReplayResult must match bit-for-bit."""
    assert expected.mode == actual.mode
    assert len(expected.users) == len(actual.users)
    for ue, ua in zip(expected.users, actual.users):
        ctx = f"user {ue.user_id}"
        assert ue.user_id == ua.user_id, ctx
        assert ue.user_class is ua.user_class, ctx
        assert ue.metrics.count == ua.metrics.count, ctx
        assert ue.metrics.hits == ua.metrics.hits, ctx
        _identical_scalar(ue.metrics.hit_rate, ua.metrics.hit_rate, ctx)
        _identical_scalar(
            ue.metrics.total_latency_s, ua.metrics.total_latency_s, ctx
        )
        _identical_scalar(
            ue.metrics.total_energy_j, ua.metrics.total_energy_j, ctx
        )
        # Collectors retain every QueryOutcome: the full per-query
        # record streams must be equal, not just their aggregates.
        assert ue.metrics.outcomes == ua.metrics.outcomes, ctx
        for q in (0, 50, 95, 100):
            _identical_scalar(
                ue.metrics.latency_percentile(q),
                ua.metrics.latency_percentile(q),
                f"{ctx} p{q}",
            )
    _identical_scalar(
        expected.overall_hit_rate(), actual.overall_hit_rate(), "overall"
    )
    _identical_mapping(
        expected.hit_rate_by_class(), actual.hit_rate_by_class(), "by_class"
    )
    for lo, hi in (
        (MONTH_SECONDS, MONTH_SECONDS + WEEK_S),
        (MONTH_SECONDS, MONTH_SECONDS + 2 * WEEK_S),
    ):
        _identical_mapping(
            expected.hit_rate_by_class_windowed(lo, hi),
            actual.hit_rate_by_class_windowed(lo, hi),
            f"window[{lo},{hi})",
        )
    _identical_mapping(
        expected.navigational_breakdown(),
        actual.navigational_breakdown(),
        "navigational",
    )
