"""Differential tests: the edge-fronted serve path vs the offline replay.

The tier's core guarantee mirrors the serve layer's own: cloudlet hops
shape loop-clock sojourns, trace marks, and attributed radio energy —
never the device outcome model.  So a 1-node, unbounded-capacity edge
tier must reproduce the single-device ``serve_replay`` community
accounting *exactly* (identical per-query outcome streams, aggregates
within 1e-9, bit-identical percentiles), and any topology must keep
per-hop breakdowns re-summing to the end-to-end totals.
"""

import pytest

from repro.edge.tier import EDGE_SHED_REASON, EdgeTopology
from repro.serve import LoadGenConfig, ServeConfig, run_loadtest, serve_replay
from repro.sim.replay import CacheMode, ReplayConfig, run_replay

TOLERANCE = 1e-9

CONFIG = ReplayConfig(users_per_class=2, seed=97)

#: The equivalence configuration from the issue: one node, no capacity
#: bound, no inflight bound.
ONE_NODE = EdgeTopology(n_nodes=1, node_capacity=None)


def _assert_equivalent(offline, served):
    assert len(offline.users) == len(served.users)
    for a, b in zip(offline.users, served.users):
        assert a.user_id == b.user_id
        assert a.metrics.count == b.metrics.count
        assert a.metrics.hits == b.metrics.hits
        assert a.metrics.total_latency_s == pytest.approx(
            b.metrics.total_latency_s, abs=TOLERANCE
        )
        assert a.metrics.total_energy_j == pytest.approx(
            b.metrics.total_energy_j, abs=TOLERANCE
        )


class TestOneNodeEquivalence:
    @pytest.mark.parametrize("mode", CacheMode.ALL)
    def test_outcome_streams_identical(self, small_log, mode):
        """Per-query outcome records are *equal*, not merely close —
        the tier never rewrites a QueryOutcome."""
        offline = run_replay(small_log, CONFIG, modes=(mode,))[mode]
        results, reports = serve_replay(
            small_log, CONFIG, modes=(mode,), edge_topology=ONE_NODE
        )
        assert reports[mode].shed == 0
        _assert_equivalent(offline, results[mode])
        for a, b in zip(offline.users, results[mode].users):
            assert a.metrics.outcomes == b.metrics.outcomes

    def test_matches_plain_serve_replay(self, small_log):
        """The edge-fronted run and the edgeless run agree on every
        model number; only serve-layer sojourn/marks differ."""
        mode = CacheMode.FULL
        plain = serve_replay(small_log, CONFIG, modes=(mode,))[0][mode]
        edged = serve_replay(
            small_log, CONFIG, modes=(mode,), edge_topology=ONE_NODE
        )[0][mode]
        _assert_equivalent(plain, edged)
        for a, b in zip(plain.users, edged.users):
            assert a.metrics.outcomes == b.metrics.outcomes

    def test_percentiles_match_exactly(self, small_log):
        mode = CacheMode.FULL
        offline = run_replay(small_log, CONFIG, modes=(mode,))[mode]
        served = serve_replay(
            small_log, CONFIG, modes=(mode,), edge_topology=ONE_NODE
        )[0][mode]
        for a, b in zip(offline.users, served.users):
            for q in (50, 90, 99):
                pa, pb = (
                    a.metrics.latency_percentile(q),
                    b.metrics.latency_percentile(q),
                )
                assert pa == pb or (pa != pa and pb != pb)  # nan == nan


class TestMultiNode:
    def test_eight_nodes_same_outcome_accounting(self, small_log):
        """Sharding the community across 8 nodes still never touches
        the device outcome model."""
        mode = CacheMode.FULL
        offline = run_replay(small_log, CONFIG, modes=(mode,))[mode]
        results, reports = serve_replay(
            small_log, CONFIG, modes=(mode,),
            edge_topology=EdgeTopology(n_nodes=8),
        )
        assert reports[mode].shed == 0
        _assert_equivalent(offline, results[mode])

    @pytest.mark.parametrize("n_nodes", [1, 8])
    def test_hop_breakdowns_resum_to_totals(self, small_log, n_nodes):
        """Per-tier latency and energy partitions re-sum to each
        response's end-to-end sojourn/joules within 1e-9."""
        mode = CacheMode.FULL
        _, reports = serve_replay(
            small_log, CONFIG, modes=(mode,),
            edge_topology=EdgeTopology(n_nodes=n_nodes),
        )
        report = reports[mode]
        assert report.edge is not None
        assert report.hop_resum_error_s <= TOLERANCE
        assert report.hop_resum_error_j <= TOLERANCE
        assert report.edge_hop_p99_s > 0

    def test_report_carries_edge_stats(self, small_log):
        mode = CacheMode.FULL
        _, reports = serve_replay(
            small_log, CONFIG, modes=(mode,),
            edge_topology=EdgeTopology(n_nodes=4),
        )
        edge = reports[mode].edge
        assert edge["n_nodes"] == 4
        probes = edge["community_hits"] + edge["community_misses"]
        # every device miss consults the tier exactly once
        assert probes == reports[mode].misses
        assert (
            edge["origin_fetches"] + edge["origin_piggybacked"]
            == edge["community_misses"]
        )
        # end-of-run settlement propagated every delta
        assert all(n["pending_deltas"] == 0 for n in edge["nodes"])
        assert edge["origin"]["distinct_keys"] > 0
        metrics = reports[mode].to_metrics()
        assert metrics["community_hit_rate"] == edge["community_hit_rate"]

    def test_edge_report_deterministic(self, small_log):
        mode = CacheMode.FULL
        kwargs = dict(modes=(mode,), edge_topology=EdgeTopology(n_nodes=4))
        a = serve_replay(small_log, CONFIG, **kwargs)[1][mode]
        b = serve_replay(small_log, CONFIG, **kwargs)[1][mode]
        assert a.edge == b.edge
        assert a.to_metrics() == b.to_metrics()


class TestEdgeShedding:
    def test_overloaded_cloudlet_sheds_with_distinct_reason(self, small_log):
        """Saturating a tiny per-node inflight bound sheds mid-flight
        with the edge-specific reason, and the accounting still
        conserves every request."""
        report, workload = run_loadtest(
            small_log,
            LoadGenConfig(
                duration_s=600.0, rate_multiplier=2000.0, seed=7, max_devices=4
            ),
            ServeConfig(queue_depth=64, max_inflight=4096),
            edge_topology=EdgeTopology(n_nodes=1, node_max_inflight=1),
        )
        assert report.completed + report.shed == report.requests
        assert report.shed_reasons.get(EDGE_SHED_REASON, 0) > 0
        assert report.edge["sheds"] == report.shed_reasons[EDGE_SHED_REASON]

    def test_unbounded_edge_sheds_nothing_extra(self, small_log):
        report, workload = run_loadtest(
            small_log,
            LoadGenConfig(duration_s=600.0, rate_multiplier=2.0, seed=7),
            ServeConfig(queue_depth=64, max_inflight=4096),
            edge_topology=EdgeTopology(n_nodes=2),
        )
        assert report.shed == 0
        assert report.completed == workload.n_requests
        assert report.edge["sheds"] == 0
