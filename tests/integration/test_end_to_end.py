"""End-to-end scenario tests across the whole stack."""

from repro.core.registry import CloudletRegistry
from repro.logs.schema import MONTH_SECONDS
from repro.pocketsearch.content import ContentPolicy, build_cache_content
from repro.pocketsearch.engine import PocketSearchEngine
from repro.pocketsearch.manager import CacheUpdateServer
from repro.sim.metrics import MetricsCollector
from repro.sim.replay import CacheMode, make_cache, select_replay_users


class TestPocketSearchLifecycle:
    """Build from logs -> serve a user month -> nightly update -> serve."""

    def test_full_lifecycle(self, small_log):
        content = build_cache_content(
            small_log.month(0), ContentPolicy(target_coverage=0.5)
        )
        cache = make_cache(content, CacheMode.FULL)
        engine = PocketSearchEngine(cache)

        selected = select_replay_users(small_log, 1, 2)
        uid = next(uids[0] for uids in selected.values() if uids)
        stream = small_log.for_user(uid).month(1)

        metrics = MetricsCollector()
        half = stream.n_events // 2
        for i in range(half):
            result = engine.serve_query(
                stream.query_string(int(stream.query_keys[i])),
                stream.result_url(int(stream.result_keys[i])),
            )
            metrics.record(result.outcome)

        # Nightly refresh against the latest window.
        server = CacheUpdateServer(policy=ContentPolicy(target_coverage=0.5))
        window = small_log.window(0.5 * MONTH_SECONDS, 1.5 * MONTH_SECONDS)
        patch = server.refresh(cache, window)
        assert patch.bytes_downloaded > 0

        for i in range(half, stream.n_events):
            result = engine.serve_query(
                stream.query_string(int(stream.query_keys[i])),
                stream.result_url(int(stream.result_keys[i])),
            )
            metrics.record(result.outcome)

        assert metrics.count == stream.n_events
        assert 0 < metrics.hit_rate <= 1
        # Hits are served an order of magnitude faster than misses.
        hits = [o.latency_s for o in metrics.outcomes if o.hit]
        misses = [o.latency_s for o in metrics.outcomes if not o.hit]
        if hits and misses:
            assert min(misses) > 5 * max(hits)

    def test_update_preserves_user_hits(self, small_log):
        """Pairs the user accessed survive the refresh (Section 5.4)."""
        content = build_cache_content(
            small_log.month(0), ContentPolicy(max_pairs=100)
        )
        cache = make_cache(content, CacheMode.FULL)
        engine = PocketSearchEngine(cache)
        engine.serve_query("my own thing", "www.myownthing.org")
        server = CacheUpdateServer(policy=ContentPolicy(max_pairs=50))
        server.refresh(cache, small_log.month(1))
        assert cache.lookup("my own thing").hit


class TestMultiCloudletDevice:
    """Section 7: search + ads cloudlets coexisting under the registry."""

    def test_search_cloudlet_in_registry(self, small_log):
        from repro.core.cloudlet import Cloudlet

        class SearchCloudlet(Cloudlet):
            def __init__(self, engine):
                super().__init__("search", 10 * 1024 * 1024)
                self.engine = engine

            def lookup_local(self, key):
                lookup = self.engine.cache.lookup(key)
                return lookup.results if lookup.hit else None

            def store_local(self, key, value, nbytes):
                self.engine.cache.record_click(key, value)

            def evict(self, nbytes):
                return nbytes

            def local_cost(self, key):
                return (0.378, 0.47)

            def remote_cost(self, key):
                return self.engine.radio_only_cost()

        content = build_cache_content(
            small_log.month(0), ContentPolicy(max_pairs=100)
        )
        cache = make_cache(content, CacheMode.FULL)
        search = SearchCloudlet(PocketSearchEngine(cache))
        registry = CloudletRegistry(total_budget_bytes=100 * 1024 * 1024)
        registry.register(search, index_bytes=cache.dram_bytes)

        cached_query = content.entries[0].query
        outcome = registry.cloudlet("search").serve(cached_query)
        assert outcome.hit
        missed = registry.cloudlet("search").serve("definitely not cached")
        assert not missed.hit
        assert missed.latency_s > outcome.latency_s
