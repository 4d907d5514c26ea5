"""Tests for the cache update protocol (Section 5.4)."""

import pytest

from repro.pocketsearch.cache import PocketSearchCache
from repro.pocketsearch.content import CacheContent, CacheEntry, ContentPolicy
from repro.pocketsearch.hashtable import hash64
from repro.pocketsearch.manager import CacheUpdateServer


def content(entries):
    return CacheContent(entries=entries, total_log_volume=1000)


def entry(query, url, volume=10, score=0.5):
    return CacheEntry(
        query=query, url=url, volume=volume, score=score, navigational=False
    )


@pytest.fixture
def cache():
    c = PocketSearchCache()
    c.load_community(
        content(
            [
                entry("youtube", "www.youtube.com", score=0.9),
                entry("oldnews", "www.oldnews.com", score=0.5),
            ]
        )
    )
    return c


class TestRefresh:
    def test_unaccessed_pairs_dropped_unless_still_popular(self, cache):
        """Community pairs the user never touched are pruned, then only
        re-added if the fresh popular set still contains them."""
        server = CacheUpdateServer()
        fresh = content([entry("youtube", "www.youtube.com", score=0.8)])
        patch = server.refresh_with_content(cache, fresh)
        assert cache.lookup("youtube").hit
        assert not cache.lookup("oldnews").hit
        assert patch.pairs_removed == 2

    def test_accessed_pairs_retained(self, cache):
        cache.record_click("oldnews", "www.oldnews.com")
        server = CacheUpdateServer()
        fresh = content([entry("youtube", "www.youtube.com")])
        server.refresh_with_content(cache, fresh)
        assert cache.lookup("oldnews").hit

    def test_low_score_accessed_pairs_dropped(self, cache):
        cache.record_click("oldnews", "www.oldnews.com")
        # Decay the pair's score below the retention threshold.
        cache.hashtable.store(
            "oldnews", ((hash64("www.oldnews.com"), 0.01, True),)
        )
        server = CacheUpdateServer(retention_min_score=0.05)
        server.refresh_with_content(cache, content([]))
        assert not cache.lookup("oldnews").hit

    def test_conflict_keeps_max_score(self, cache):
        cache.record_click("youtube", "www.youtube.com")  # score 0.9 + 1
        server = CacheUpdateServer()
        fresh = content([entry("youtube", "www.youtube.com", score=0.3)])
        server.refresh_with_content(cache, fresh)
        scores = dict(cache.lookup("youtube").results)
        assert scores[hash64("www.youtube.com")] == pytest.approx(1.9)

    def test_patch_accounting(self, cache):
        server = CacheUpdateServer()
        fresh = content(
            [
                entry("youtube", "www.youtube.com"),
                entry("brand new", "www.brandnew.com"),
            ]
        )
        patch = server.refresh_with_content(cache, fresh)
        assert patch.results_added == 1  # only the brand-new URL
        assert patch.bytes_uploaded > 0
        assert patch.bytes_downloaded > 0
        assert sum(patch.patch_files.values()) > 0

    def test_update_exchange_small(self, cache):
        """The paper: the update exchange is well under ~1.5 MB."""
        server = CacheUpdateServer()
        fresh = content([entry(f"q{i}", f"www.s{i}.com") for i in range(500)])
        patch = server.refresh_with_content(cache, fresh)
        assert patch.bytes_uploaded + patch.bytes_downloaded < 1.5 * 1024 * 1024

    def test_refresh_from_log(self, small_log):
        """End-to-end: refresh mines a real log window."""
        cache = PocketSearchCache()
        server = CacheUpdateServer(policy=ContentPolicy(max_pairs=50))
        patch = server.refresh(cache, small_log.month(0))
        assert patch.pairs_added == 50
        assert cache.hashtable.n_pairs == 50

    def test_validation(self):
        with pytest.raises(ValueError):
            CacheUpdateServer(retention_min_score=-1)


class TestRefreshEdgeCases:
    """refresh_with_content boundary behaviour: empty fresh logs, whole-
    cache evictions, and updates landing mid-session."""

    def test_empty_fresh_log_drops_unaccessed_community(self, cache, small_log):
        """Mining an empty log window yields empty content; the round
        must still run (prune + GC), not crash or ship garbage."""
        server = CacheUpdateServer()
        empty = small_log.window(1e15, 1e15 + 1)
        assert empty.n_events == 0
        patch = server.refresh(cache, empty)
        assert patch.pairs_added == 0
        assert patch.results_added == 0
        assert patch.pairs_removed == 2  # both community pairs, unaccessed
        assert not cache.lookup("youtube").hit
        assert cache.hashtable.n_pairs == 0
        assert cache.hashtable.queries() == []

    def test_empty_fresh_log_keeps_accessed_entries(self, cache, small_log):
        cache.record_click("youtube", "www.youtube.com")
        server = CacheUpdateServer()
        patch = server.refresh(cache, small_log.window(1e15, 1e15 + 1))
        assert cache.lookup("youtube").hit
        assert patch.pairs_removed == 1  # only the untouched pair

    def test_full_community_eviction(self, cache):
        """A patch whose fresh set is disjoint from the old one evicts
        the entire community cache and frees its database records."""
        server = CacheUpdateServer()
        fresh = content(
            [entry("alpha", "www.alpha.com"), entry("beta", "www.beta.com")]
        )
        patch = server.refresh_with_content(cache, fresh)
        assert patch.pairs_removed == 2
        assert patch.pairs_added == 2
        assert patch.results_removed == 2
        assert patch.queries_pruned == 2
        assert not cache.lookup("youtube").hit
        assert not cache.lookup("oldnews").hit
        assert cache.lookup("alpha").hit
        assert cache.lookup("beta").hit
        from repro.pocketsearch.hashtable import hash64 as h64

        assert not cache.database.contains(h64("www.youtube.com"))
        assert cache.database.contains(h64("www.alpha.com"))

    def test_mid_session_update_preserves_personalization(self, cache):
        """An update applied between queries must not lose the pairs the
        user's own clicks created (personalization survives refresh)."""
        from repro.pocketsearch.engine import PocketSearchEngine

        engine = PocketSearchEngine(cache)
        # Session first half: a personal query, cached by the click.
        miss = engine.serve_query("my bank", "www.mybank.example")
        assert not miss.outcome.hit
        assert engine.serve_query("my bank", "www.mybank.example").outcome.hit

        server = CacheUpdateServer()
        fresh = content([entry("alpha", "www.alpha.com")])
        patch = server.refresh_with_content(cache, fresh)
        assert patch.pairs_removed >= 2  # community pairs went away

        # Session second half: the personal entry still hits, and the
        # fresh community entry is live.
        assert engine.serve_query("my bank", "www.mybank.example").outcome.hit
        assert cache.lookup("alpha").hit
        assert "my bank" in cache.hashtable.queries()

    def test_mid_session_update_then_decay_eviction(self, cache):
        """Personal entries survive refreshes only while their score
        stays above retention — the paper's 3-month drop rule."""
        from repro.pocketsearch.engine import PocketSearchEngine

        engine = PocketSearchEngine(cache)
        engine.serve_query("my bank", "www.mybank.example")
        server = CacheUpdateServer(retention_min_score=0.05)
        server.refresh_with_content(cache, content([]))
        assert cache.lookup("my bank").hit
        # The personal pair's score decays below retention.
        bank = hash64("www.mybank.example")
        assert cache.hashtable.slots_for("my bank")[0][0] == bank
        cache.hashtable.store("my bank", ((bank, 0.01, True),))
        server.refresh_with_content(cache, content([]))
        assert not cache.lookup("my bank").hit
        assert "my bank" not in cache.hashtable.queries()
