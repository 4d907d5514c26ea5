"""Tests for the PocketSearch cache composition."""

import pytest

from repro.pocketsearch.cache import PocketSearchCache
from repro.pocketsearch.content import CacheContent, CacheEntry
from repro.pocketsearch.hashtable import hash64


def content(entries):
    return CacheContent(entries=entries, total_log_volume=1000)


def entry(query, url, volume=10, score=0.5):
    return CacheEntry(
        query=query, url=url, volume=volume, score=score, navigational=False
    )


@pytest.fixture
def loaded_cache():
    cache = PocketSearchCache()
    cache.load_community(
        content([entry("youtube", "www.youtube.com"), entry("news", "www.cnn.com")])
    )
    return cache


class TestCommunityLoad:
    def test_hit_after_load(self, loaded_cache):
        lookup = loaded_cache.lookup("youtube")
        assert lookup.hit
        assert lookup.results[0][0] == hash64("www.youtube.com")

    def test_miss_for_unknown(self, loaded_cache):
        assert not loaded_cache.lookup("unknown").hit

    def test_results_stored_once(self):
        cache = PocketSearchCache()
        cache.load_community(
            content(
                [entry("cnn", "www.cnn.com"), entry("news", "www.cnn.com")]
            )
        )
        assert cache.database.n_results == 1

    def test_registry_tracks_queries(self, loaded_cache):
        assert set(loaded_cache.hashtable.queries()) == {"youtube", "news"}


class TestPersonalization:
    def test_miss_then_hit(self, loaded_cache):
        assert not loaded_cache.lookup("obscure").hit
        loaded_cache.record_click("obscure", "www.obscure.org")
        assert loaded_cache.lookup("obscure").hit

    def test_click_stores_result(self, loaded_cache):
        loaded_cache.record_click("obscure", "www.obscure.org")
        assert loaded_cache.database.contains(hash64("www.obscure.org"))

    def test_disabled_personalization_never_learns(self):
        cache = PocketSearchCache(personalization_enabled=False)
        cache.lookup("q")
        cache.record_click("q", "www.x.com")
        assert not cache.lookup("q").hit

    def test_click_reranks(self, loaded_cache):
        loaded_cache.record_click("youtube", "www.youtube.com/login")
        results = loaded_cache.lookup("youtube").results
        assert results[0][0] == hash64("www.youtube.com/login")


class TestCounters:
    def test_hit_rate(self, loaded_cache):
        loaded_cache.lookup("youtube")
        loaded_cache.lookup("youtube")
        loaded_cache.lookup("nope")
        assert loaded_cache.hit_rate == pytest.approx(2 / 3)

    def test_reset(self, loaded_cache):
        loaded_cache.lookup("youtube")
        loaded_cache.reset_counters()
        assert loaded_cache.hit_rate == 0.0

    def test_footprints_positive(self, loaded_cache):
        assert loaded_cache.dram_bytes > 0
        assert loaded_cache.flash_bytes > 0


class TestFromContent:
    def test_builder(self):
        cache = PocketSearchCache.from_content(
            content([entry("a", "www.a.com")]), results_per_entry=4
        )
        assert cache.hashtable.results_per_entry == 4
        assert cache.lookup("a").hit
