"""Tests for the auto-suggest prefix index (Figure 1)."""

import pytest

from repro.pocketsearch.cache import PocketSearchCache
from repro.pocketsearch.content import CacheContent, CacheEntry
from repro.pocketsearch.engine import PocketSearchEngine
from repro.pocketsearch.hashtable import hash64
from repro.pocketsearch.suggest import SuggestIndex


def make_cache():
    cache = PocketSearchCache()
    cache.load_community(
        CacheContent(
            entries=[
                CacheEntry("youtube", "www.youtube.com", 100, 0.9, True),
                CacheEntry("young money", "www.youngmoney.com", 10, 0.3, False),
                CacheEntry("yosemite", "www.nps.gov/yose", 5, 0.5, False),
                CacheEntry("news", "www.cnn.com", 50, 0.8, False),
            ],
            total_log_volume=1000,
        )
    )
    return cache


class TestCompletion:
    def test_prefix_match(self):
        index = SuggestIndex(make_cache())
        suggestions = index.complete("yo")
        assert {s.query for s in suggestions} == {
            "youtube",
            "young money",
            "yosemite",
        }

    def test_ranked_by_score(self):
        index = SuggestIndex(make_cache())
        suggestions = index.complete("yo")
        scores = [s.score for s in suggestions]
        assert scores == sorted(scores, reverse=True)
        assert suggestions[0].query == "youtube"

    def test_top_k(self):
        index = SuggestIndex(make_cache())
        assert len(index.complete("yo", k=2)) == 2

    def test_no_match(self):
        index = SuggestIndex(make_cache())
        assert index.complete("zzz") == []

    def test_empty_prefix(self):
        index = SuggestIndex(make_cache())
        assert index.complete("") == []
        assert index.complete("   ") == []

    def test_case_insensitive(self):
        index = SuggestIndex(make_cache())
        assert index.complete("YO")[0].query == "youtube"

    def test_k_validation(self):
        index = SuggestIndex(make_cache())
        with pytest.raises(ValueError):
            index.complete("yo", k=0)

    def test_top_result_hash(self):
        index = SuggestIndex(make_cache())
        top = index.complete("youtube")[0]
        assert top.top_result_hash == hash64("www.youtube.com")


class TestFreshness:
    def test_personalization_updates_suggestions(self):
        cache = make_cache()
        index = SuggestIndex(cache)
        assert index.complete("yog") == []
        cache.record_click("yoga", "www.yoga.org")
        assert index.complete("yog")[0].query == "yoga"

    def test_click_reranks_suggestions(self):
        cache = make_cache()
        index = SuggestIndex(cache)
        for _ in range(3):
            cache.record_click("yosemite", "www.nps.gov/yose")
        assert index.complete("yo")[0].query == "yosemite"


class TestEngineIntegration:
    def test_engine_suggest(self):
        engine = PocketSearchEngine(make_cache())
        suggestions, latency = engine.suggest("yo", k=3)
        assert suggestions[0].query == "youtube"
        assert latency < 1e-3  # microseconds, not radio seconds


class TestUpdateFreshness:
    """A server update that swaps N queries for N different ones keeps
    the table the same *size*; only its version reveals the change.  Regression for the stale-suggest bug."""

    def _swap_content(self):
        # Same cardinality as make_cache()'s community load: 4 in, 4 out.
        return CacheContent(
            entries=[
                CacheEntry("zebra", "www.zebra.org", 100, 0.9, False),
                CacheEntry("zelda", "www.zelda.com", 50, 0.8, False),
                CacheEntry("zen garden", "www.zen.org", 20, 0.6, False),
                CacheEntry("zeppelin", "www.ledzeppelin.com", 10, 0.5, False),
            ],
            total_log_volume=1000,
        )

    def test_registry_version_bumps_on_swap(self):
        from repro.pocketsearch.manager import CacheUpdateServer

        cache = make_cache()
        before = cache.hashtable.version
        patch = CacheUpdateServer().refresh_with_content(
            cache, self._swap_content()
        )
        assert cache.hashtable.version > before
        assert patch.queries_pruned == 4  # all old queries unaccessed
        assert len(cache.hashtable.queries()) == 4  # same size, new content

    def test_suggest_fresh_after_equal_size_swap(self):
        from repro.pocketsearch.manager import CacheUpdateServer

        engine = PocketSearchEngine(make_cache())
        suggestions, _ = engine.suggest("yo")
        assert suggestions, "community content should suggest before update"
        CacheUpdateServer().refresh_with_content(
            engine.cache, self._swap_content()
        )
        stale, _ = engine.suggest("yo")
        assert stale == []  # old queries are gone, not served stale
        fresh, _ = engine.suggest("ze")
        assert {s.query for s in fresh} == {
            "zebra",
            "zelda",
            "zen garden",
            "zeppelin",
        }

    def test_index_refresh_detects_swap_directly(self):
        from repro.pocketsearch.manager import CacheUpdateServer

        cache = make_cache()
        index = SuggestIndex(cache)
        assert index.complete("youtube")
        CacheUpdateServer().refresh_with_content(cache, self._swap_content())
        index.refresh()
        assert index.complete("youtube") == []
        assert index.complete("zebra")[0].query == "zebra"

    def test_accessed_query_survives_swap_and_stays_suggested(self):
        from repro.pocketsearch.manager import CacheUpdateServer

        engine = PocketSearchEngine(make_cache())
        engine.cache.record_click("youtube", "www.youtube.com")
        CacheUpdateServer().refresh_with_content(
            engine.cache, self._swap_content()
        )
        kept, _ = engine.suggest("youtube")
        assert kept and kept[0].query == "youtube"
