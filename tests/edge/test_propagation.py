"""Popularity propagation: merge accounting and UpdatePatch pricing."""

import pytest

from repro.edge.propagation import DELTA_BYTES, OriginCoordinator
from repro.edge.tier import EdgeTier, EdgeTopology
from repro.pocketsearch.content import DEFAULT_RECORD_BYTES


class TestOriginCoordinator:
    def test_apply_merges_and_prices_upload(self):
        origin = OriginCoordinator()
        patch = origin.apply_deltas(0, [("a", 3), ("b", 1)])
        assert patch.bytes_uploaded == 2 * DELTA_BYTES
        assert patch.pairs_added == 2
        patch = origin.apply_deltas(1, [("a", 2), ("c", 1)])
        assert patch.pairs_added == 1  # only c is new
        assert origin.popularity == {"a": 5, "b": 1, "c": 1}
        assert origin.flushes == 2
        assert origin.deltas_merged == 4
        assert origin.bytes_uploaded == 4 * DELTA_BYTES

    def test_nonpositive_delta_rejected(self):
        with pytest.raises(ValueError):
            OriginCoordinator().apply_deltas(0, [("a", 0)])

    def test_top_keys_hottest_first_ties_by_key(self):
        origin = OriginCoordinator()
        origin.apply_deltas(0, [("b", 2), ("a", 2), ("c", 5)])
        assert origin.top_keys(2) == ["c", "a"]
        assert origin.top_keys(10) == ["c", "a", "b"]

    def test_refresh_patch_priced_per_record(self):
        origin = OriginCoordinator()
        patch = origin.refresh_patch(7)
        assert patch.bytes_downloaded == 7 * DEFAULT_RECORD_BYTES
        assert patch.results_added == 7
        assert origin.refreshes == 1
        assert origin.bytes_downloaded == 7 * DEFAULT_RECORD_BYTES


class TestTierPropagation:
    def test_flush_all_settles_every_pending_delta(self):
        tier = EdgeTier(EdgeTopology(n_nodes=3, propagation_batch=2))
        for i in range(10):
            node = tier.nodes[i % 3]
            node.record_delta(f"k{i}")
            node.record_delta(f"k{i}")
        tier.flush_all()
        assert all(n.pending_deltas == 0 for n in tier.nodes.values())
        assert sum(tier.origin.popularity.values()) == 20
        assert tier.origin.stats()["distinct_keys"] == 10
        # batch bound respected: 10 deltas over batches of <= 2
        assert tier.origin.flushes >= 5

    def test_flush_all_deterministic(self):
        def build():
            tier = EdgeTier(EdgeTopology(n_nodes=2))
            for i in range(9):
                tier.nodes[i % 2].record_delta(f"k{i % 4}")
            tier.flush_all()
            return tier.origin.popularity, tier.origin.stats()

        assert build() == build()

    def test_refresh_from_origin_key_routing_respects_ownership(self):
        tier = EdgeTier(EdgeTopology(n_nodes=2, routing="key"))
        tier.nodes[0].record_delta("hot")
        for _ in range(5):
            tier.nodes[1].record_delta("hotter")
        tier.flush_all()
        patch = tier.refresh_from_origin(per_node=4)
        assert patch.bytes_downloaded == patch.results_added * DEFAULT_RECORD_BYTES
        for node_id, node in tier.nodes.items():
            for key in ("hot", "hotter"):
                if key in node:
                    assert tier.ring.owner(key) == node_id

    def test_refresh_from_origin_home_routing_replicates(self):
        tier = EdgeTier(EdgeTopology(n_nodes=2, routing="home"))
        for _ in range(3):
            tier.nodes[0].record_delta("popular")
        tier.flush_all()
        tier.refresh_from_origin(per_node=1)
        assert all("popular" in node for node in tier.nodes.values())

    def test_refresh_validates_per_node(self):
        with pytest.raises(ValueError):
            EdgeTier(EdgeTopology()).refresh_from_origin(0)

    def test_event_driven_flush_uses_jittered_deadline(self):
        """First traffic arms the deadline; deltas flush only after it
        passes — no background task involved."""
        tier = EdgeTier(EdgeTopology(n_nodes=1, propagation_interval_s=100.0))
        node = tier.nodes[0]
        node.record_delta("a")
        tier._maybe_flush(node, now=0.0)  # arms the deadline
        assert node.next_flush_at is not None
        assert 50.0 <= node.next_flush_at <= 150.0
        tier._maybe_flush(node, now=node.next_flush_at - 1.0)
        assert node.pending_deltas == 1  # not due yet
        tier._maybe_flush(node, now=node.next_flush_at + 1.0)
        assert node.pending_deltas == 0
        assert tier.origin.flushes == 1
