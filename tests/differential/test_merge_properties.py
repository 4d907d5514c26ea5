"""Property tests for ``MetricsCollector.merge``.

``ReplayResult.navigational_breakdown`` merges each class's per-user
collectors, which leans on algebraic properties of the collector:
merging must behave like (multi)set union of the underlying outcome
streams.  Checked here with hypothesis-generated
outcome lists:

* associativity — ``(a + b) + c == a + (b + c)`` on the full outcome
  streams;
* commutativity — ``a + b`` and ``b + a`` agree on every order-free
  statistic (counts, sums, extremes, windows, navigational split);
* identity — merging an empty collector is a no-op, and merging *into*
  an empty collector reproduces the source.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.sim.metrics import MetricsCollector, QueryOutcome, ServiceSource

DAY_S = 24 * 3600.0


def outcome_strategy():
    return st.builds(
        QueryOutcome,
        query=st.sampled_from(["q0", "q1", "q2", "q3"]),
        hit=st.booleans(),
        source=st.sampled_from(list(ServiceSource)),
        latency_s=st.floats(min_value=1e-4, max_value=30.0, allow_nan=False),
        energy_j=st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
        timestamp=st.floats(min_value=0.0, max_value=60 * DAY_S,
                            allow_nan=False),
        navigational=st.sampled_from([None, True, False]),
    )


outcome_lists = st.lists(outcome_strategy(), max_size=40)


def exact_of(outcomes):
    return MetricsCollector(list(outcomes))


def order_free_stats(c: MetricsCollector) -> dict:
    """Every statistic that must not depend on merge order."""
    stats = {
        "count": c.count,
        "hits": c.hits,
        "hit_rate": c.hit_rate,
        "nav": c.hit_breakdown_navigational(),
        "window_w1": _window_stats(c, 0.0, 7 * DAY_S),
        "window_w2": _window_stats(c, 7 * DAY_S, 30 * DAY_S),
    }
    if c.count:
        stats["p0"] = c.latency_percentile(0)
        stats["p100"] = c.latency_percentile(100)
    return stats


def _window_stats(c, lo, hi):
    w = c.window(lo, hi)
    return (w.count, w.hits)


def close_sums(a: MetricsCollector, b: MetricsCollector):
    """Float totals may differ by summation order only at ulp scale."""
    assert math.isclose(
        a.total_latency_s, b.total_latency_s, rel_tol=1e-9, abs_tol=1e-12
    )
    assert math.isclose(
        a.total_energy_j, b.total_energy_j, rel_tol=1e-9, abs_tol=1e-12
    )


class TestExactMerge:
    @given(a=outcome_lists, b=outcome_lists, c=outcome_lists)
    @settings(max_examples=60, deadline=None)
    def test_associative(self, a, b, c):
        left = exact_of(a)
        left.merge(exact_of(b))
        left.merge(exact_of(c))
        bc = exact_of(b)
        bc.merge(exact_of(c))
        right = exact_of(a)
        right.merge(bc)
        assert left.outcomes == right.outcomes  # full streams

    @given(a=outcome_lists, b=outcome_lists)
    @settings(max_examples=60, deadline=None)
    def test_commutative_stats(self, a, b):
        ab = exact_of(a)
        ab.merge(exact_of(b))
        ba = exact_of(b)
        ba.merge(exact_of(a))
        assert order_free_stats(ab) == order_free_stats(ba)
        close_sums(ab, ba)

    @given(a=outcome_lists)
    @settings(max_examples=40, deadline=None)
    def test_empty_identity(self, a):
        collector = exact_of(a)
        collector.merge(MetricsCollector())
        assert collector.outcomes == list(a)
        empty = MetricsCollector()
        empty.merge(exact_of(a))
        assert empty.outcomes == list(a)
