"""EdgeTier: the peer-fetch protocol under both clocks.

Every async test runs under the deterministic virtual clock
(``run_simulated``) *and* a stock wall-clock asyncio loop — the tier
only speaks ``loop.time()`` / ``asyncio.sleep``, so both must agree on
all accounting.
"""

import asyncio
import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edge.evaluate import capacity_sweep, evaluate_stream, hit_rates_monotone
from repro.edge.tier import EDGE_SHED_REASON, EdgeTier, EdgeTopology
from repro.obs.trace import TraceContext
from repro.serve.vclock import run_simulated

#: (loop-runner, scale) pairs: virtual seconds are free, wall seconds
#: are real — the wall variant scales modelled time down to ~0.
CLOCKS = [
    pytest.param(run_simulated, 1.0, id="virtual"),
    pytest.param(asyncio.run, 0.0, id="wall"),
]

RADIO = (1.0, 2.0, 3.0)


class TestFetchProtocol:
    @pytest.mark.parametrize("runner,scale", CLOCKS)
    def test_edge_hit_serves_from_slice(self, runner, scale):
        async def scenario():
            tier = EdgeTier(EdgeTopology(n_nodes=2))
            tier.seed_from_scores([("warm key", 1.0)])
            loop = asyncio.get_event_loop()
            trace = TraceContext(1, loop.time())
            result = await tier.fetch(
                "warm key", device_id=5, radio_s=6.0, scale=scale,
                trace=trace, radio_energy=RADIO,
            )
            return tier, trace, result

        tier, trace, result = runner(scenario())
        assert result.tier == "edge" and not result.shed
        assert result.node_id == tier.ring.owner("warm key")
        k = tier.topology.edge_energy_scale
        assert result.share == (RADIO[0] * k, RADIO[1] * k, RADIO[2] * k)
        assert result.timeline_j == pytest.approx(sum(RADIO) * k)
        marked = [name for name, _ in trace.marks]
        assert "edge_hop" in marked and "edge_serve" in marked
        assert trace.annotations["edge_hit"] is True
        assert tier.community_hits == 1 and tier.community_misses == 0

    @pytest.mark.parametrize("runner,scale", CLOCKS)
    def test_edge_miss_fetches_origin_and_admits(self, runner, scale):
        async def scenario():
            tier = EdgeTier(EdgeTopology(n_nodes=2))
            loop = asyncio.get_event_loop()
            trace = TraceContext(1, loop.time())
            result = await tier.fetch(
                "cold key", device_id=5, radio_s=6.0, scale=scale,
                trace=trace, radio_energy=RADIO,
            )
            return tier, trace, result

        tier, trace, result = runner(scenario())
        assert result.tier == "origin" and not result.shared
        assert result.share == RADIO
        assert result.timeline_j == pytest.approx(sum(RADIO))
        marked = [name for name, _ in trace.marks]
        assert "edge_hop" in marked and "batch_wait" in marked
        assert "edge_serve" not in marked
        assert trace.annotations["edge_hit"] is False
        # the fetched key is now community-cached at the owning node
        assert "cold key" in tier.nodes[result.node_id]
        assert tier.community_hit_rate == 0.0
        assert tier.origin_fetches == 1

    def test_virtual_clock_times_the_hops(self):
        """Under the virtual clock the hop timings are exact model
        seconds: rtt for the hop, rtt + service for a hit."""
        topology = EdgeTopology(n_nodes=1)

        async def scenario():
            tier = EdgeTier(topology)
            tier.seed_from_scores([("k", 1.0)])
            loop = asyncio.get_event_loop()
            trace = TraceContext(1, loop.time())
            t0 = loop.time()
            await tier.fetch("k", 0, radio_s=6.0, scale=1.0, trace=trace)
            return loop.time() - t0, trace

        elapsed, trace = run_simulated(scenario())
        assert elapsed == pytest.approx(
            topology.edge_rtt_s + topology.edge_service_s
        )
        got = trace.breakdown()
        assert got["edge_hop"] == pytest.approx(topology.edge_rtt_s)
        assert got["edge_serve"] == pytest.approx(topology.edge_service_s)

    def test_concurrent_identical_misses_share_one_origin_fetch(self):
        async def scenario():
            tier = EdgeTier(EdgeTopology(n_nodes=1))
            results = await asyncio.gather(
                tier.fetch("same", 0, radio_s=6.0, scale=1.0, radio_energy=RADIO),
                tier.fetch("same", 1, radio_s=6.0, scale=1.0, radio_energy=RADIO),
            )
            return tier, results

        tier, results = run_simulated(scenario())
        assert sorted(r.shared for r in results) == [False, True]
        assert tier.origin_fetches == 1
        assert tier.origin_piggybacked == 1
        # the energy split is conservative: shares sum to one full fetch
        total = sum(sum(r.share) for r in results)
        assert total == pytest.approx(sum(RADIO))

    def test_inflight_bound_sheds_with_edge_reason(self):
        async def scenario():
            tier = EdgeTier(EdgeTopology(n_nodes=1, node_max_inflight=1))
            results = await asyncio.gather(
                *(tier.fetch(f"k{i}", i, radio_s=6.0, scale=1.0) for i in range(3))
            )
            return tier, results

        tier, results = run_simulated(scenario())
        shed = [r for r in results if r.shed]
        assert len(shed) == 2
        assert all(r.reason == EDGE_SHED_REASON for r in shed)
        assert tier.sheds == 2
        assert tier.nodes[0].sheds == 2
        # the admitted request completed normally
        assert [r.tier for r in results if not r.shed] == ["origin"]

    def test_deterministic_across_runs(self):
        def run_once():
            async def scenario():
                tier = EdgeTier(EdgeTopology(n_nodes=4, node_capacity=3))
                for i in range(30):
                    await tier.fetch(f"k{i % 9}", i % 5, radio_s=2.0, scale=1.0)
                tier.flush_all()
                return tier.stats()

            return run_simulated(scenario())

        assert run_once() == run_once()

    def test_home_routing_uses_device_region(self):
        async def scenario():
            tier = EdgeTier(
                EdgeTopology(n_nodes=4, routing="home", placement_skew=0.0)
            )
            result = await tier.fetch("k", device_id=42, radio_s=1.0, scale=1.0)
            return tier, result

        tier, result = run_simulated(scenario())
        assert result.node_id == tier.device_region(42) % 4
        # memoized placement is stable
        assert tier.device_region(42) == tier.device_region(42)


def fresh_stats(tier):
    """The tier's snapshot built from scratch out of its nodes, batchers
    and origin."""
    return {
        "n_nodes": tier.topology.n_nodes,
        "routing": tier.topology.routing,
        "community_hits": tier.community_hits,
        "community_misses": tier.community_misses,
        "community_hit_rate": tier.community_hit_rate,
        "origin_fetches": tier.origin_fetches,
        "origin_piggybacked": tier.origin_piggybacked,
        "sheds": tier.sheds,
        "origin": tier.origin.stats(),
        "nodes": [tier.nodes[i].stats() for i in sorted(tier.nodes)],
    }


class TestStatsSnapshot:
    """``stats()`` is rebuilt only when a fetch, shed or flush moved a
    counter, and is then equal to a snapshot built from scratch."""

    #: (start delay, key, device): a burst that sheds on the one-fetch
    #: bound, spaced fetches with idle gaps between them, repeats that
    #: hit the slice, and enough time for propagation flushes.
    FETCHES = [
        (0.0, "warm", 0), (0.0, "a", 1), (0.01, "b", 2), (0.3, "a", 3),
        (2.0, "c", 0), (2.0, "warm", 1), (4.0, "a", 2), (6.5, "b", 3),
        (6.5, "d", 0), (9.0, "c", 1), (12.0, "e", 2), (15.0, "a", 3),
    ]

    def _run(self):
        topology = EdgeTopology(
            n_nodes=2, node_capacity=3, node_max_inflight=1,
            propagation_interval_s=1.0,
        )
        checks = {"fetch": [], "shed": [], "flush": [], "probe": [],
                  "idle": []}

        async def scenario():
            tier = EdgeTier(topology)
            tier.seed_from_scores([("warm", 1.0)])
            state = {"inflight": 0, "events": 0, "done": False}

            def on_flush(t, node_id, n_deltas):
                state["events"] += 1
                checks["flush"].append(tier.stats() == fresh_stats(tier))

            tier.on_flush = on_flush

            async def fetch(delay, key, device):
                await asyncio.sleep(delay)
                state["inflight"] += 1
                state["events"] += 1
                result = await tier.fetch(key, device, radio_s=0.5, scale=1.0)
                state["inflight"] -= 1
                state["events"] += 1
                kind = "shed" if result.shed else "fetch"
                checks[kind].append(tier.stats() == fresh_stats(tier))

            async def probe():
                last, last_events = None, None
                while not state["done"]:
                    snapshot = tier.stats()
                    checks["probe"].append(snapshot == fresh_stats(tier))
                    if state["inflight"] == 0 and state["events"] == last_events:
                        # Nothing ran since the last probe: no rebuild.
                        checks["idle"].append(snapshot is last)
                    last, last_events = snapshot, state["events"]
                    await asyncio.sleep(0.05)

            prober = asyncio.ensure_future(probe())
            await asyncio.gather(*(fetch(*f) for f in self.FETCHES))
            state["done"] = True
            await prober
            tier.flush_all()
            return tier

        tier = run_simulated(scenario())
        return tier, checks

    def test_equals_a_fresh_snapshot_after_every_event(self):
        tier, checks = self._run()
        assert checks["fetch"] and all(checks["fetch"])
        assert checks["shed"] and all(checks["shed"])
        assert checks["flush"] and all(checks["flush"])
        assert checks["probe"] and all(checks["probe"])
        assert tier.stats() == fresh_stats(tier)
        # The scenario sheds, hits the slice, fetches from the origin
        # and flushes.
        assert tier.sheds > 0 and tier.community_hits > 0
        assert tier.origin_fetches > 0 and tier.origin.flushes > 0

    def test_not_rebuilt_between_events(self):
        tier, checks = self._run()
        assert len(checks["idle"]) > 20
        assert all(checks["idle"])
        snapshot = tier.stats()
        assert tier.stats() is snapshot
        tier.flush_all()
        assert tier.stats() is not snapshot

    def test_seeding_and_refresh_rebuild(self):
        tier, _ = self._run()
        for change in (
            lambda: tier.seed_from_scores([("f", 1.0), ("g", 2.0)]),
            lambda: tier.refresh_from_origin(per_node=2),
        ):
            snapshot = tier.stats()
            change()
            assert tier.stats() is not snapshot
            assert tier.stats() == fresh_stats(tier)


class TestOfflineEvaluator:
    EVENTS = [
        (float(i), i % 3, f"k{i % 5}") for i in range(40)
    ]

    def test_evaluate_matches_manual_replay(self):
        topology = EdgeTopology(n_nodes=2)
        result = evaluate_stream(self.EVENTS, topology, node_capacity=None)
        # 5 distinct keys miss once each, every later probe hits
        assert result.community_misses == 5
        assert result.community_hits == len(self.EVENTS) - 5
        assert result.events == len(self.EVENTS)

    def test_warm_keys_preload_hits(self):
        topology = EdgeTopology(n_nodes=2)
        warm = [(f"k{i}", float(i)) for i in range(5)]
        result = evaluate_stream(
            self.EVENTS, topology, node_capacity=None, warm_keys=warm
        )
        assert result.community_misses == 0
        assert result.community_hit_rate == 1.0

    def test_capacity_sweep_sorts_and_is_monotone(self):
        topology = EdgeTopology(n_nodes=2)
        results = capacity_sweep(self.EVENTS, topology, [None, 1, 4, 2])
        assert [r.node_capacity for r in results] == [1, 2, 4, None]
        assert hit_rates_monotone(results)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=9),  # device
                st.integers(min_value=0, max_value=19),  # key index
            ),
            min_size=0,
            max_size=120,
        ),
        st.sampled_from(["key", "home"]),
    )
    def test_hit_rate_monotone_for_any_stream(self, accesses, routing):
        """The LRU inclusion property makes the capacity sweep monotone
        for *every* access stream and both routing modes — not just the
        benchmark's."""
        events = [
            (float(i), device, f"k{key}")
            for i, (device, key) in enumerate(accesses)
        ]
        topology = EdgeTopology(n_nodes=3, routing=routing)
        results = capacity_sweep(events, topology, [1, 2, 4, 8, None])
        assert hit_rates_monotone(results), [
            (r.node_capacity, r.community_hit_rate) for r in results
        ]


class TestSnapshotsNeverChange:
    """The flight recorder keeps ``stats()`` snapshots by reference, so a
    snapshot, once returned, must keep its values as counters move."""

    def test_earlier_snapshots_keep_their_values(self):
        async def scenario():
            tier = EdgeTier(
                EdgeTopology(n_nodes=3, propagation_interval_s=1.0)
            )
            tier.seed_from_scores([("warm", 1.0)])
            taken = []
            for device, key in enumerate(["warm", "a", "b", "a", "c"]):
                snapshot = tier.stats()
                taken.append((snapshot, copy.deepcopy(snapshot)))
                await tier.fetch(key, device, radio_s=0.5, scale=1.0)
                await asyncio.sleep(2.0)
            tier.flush_all()
            taken.append((tier.stats(), copy.deepcopy(tier.stats())))
            return taken

        taken = run_simulated(scenario())
        assert all(snapshot == kept for snapshot, kept in taken)
        # Every fetch moved a counter, so every snapshot differs.
        assert len({repr(kept) for _, kept in taken}) == len(taken)
