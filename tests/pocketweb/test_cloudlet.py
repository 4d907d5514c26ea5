"""Tests for the PocketWeb service path and maintenance."""

from repro.core.management import ChargeState
from repro.pocketweb.cloudlet import PocketWebCloudlet
from repro.pocketweb.pages import PageModel

MB = 1024**2
DAY = 86400.0
CHARGING = ChargeState(charging=True, on_fast_link=True)


def make_cloudlet(budget_mb=64, **kwargs):
    return PocketWebCloudlet(budget_bytes=budget_mb * MB, **kwargs)


class TestBrowsePaths:
    def test_first_visit_misses_then_hits(self):
        web = make_cloudlet()
        first = web.browse("www.staple.com", 100.0)
        second = web.browse("www.staple.com", 200.0)
        assert first.path == "miss"
        assert second.hit

    def test_miss_pays_radio(self):
        web = make_cloudlet()
        outcome = web.browse("www.a.com", 0.0)
        assert outcome.latency_s > 3.0
        assert outcome.bytes_over_radio > 0

    def test_fresh_hit_is_local(self):
        web = make_cloudlet()
        web.browse("www.a.com", 0.0)
        hit = web.browse("www.a.com", 10.0)
        assert hit.path == "fresh-hit"
        assert hit.bytes_over_radio == 0
        assert hit.latency_s < 3.0

    def test_dynamic_staple_revalidates(self):
        """A hot dynamic page goes stale and gets a conditional GET."""
        model = PageModel(dynamic_fraction=1.0)  # everything dynamic
        web = make_cloudlet(page_model=model)
        url = "www.news.com"
        web.browse(url, 0.0)
        # Visit frequently so the scheduler classifies it realtime-hot.
        for i in range(1, 8):
            web.browse(url, i * 600.0)
        late = web.browse(url, 2 * DAY)
        assert late.path == "stale-hit"
        assert 0 < late.bytes_over_radio < web.page_model.profile(url).page_bytes

    def test_cold_stale_page_served_from_cache(self):
        """Infrequently visited stale pages are served without radio."""
        model = PageModel(dynamic_fraction=1.0)
        web = make_cloudlet(page_model=model)
        web.browse("www.rare.com", 0.0)
        outcome = web.browse("www.rare.com", 20 * DAY)
        assert outcome.path == "stale-served"
        assert outcome.bytes_over_radio == 0

    def test_stale_hit_cheaper_than_miss(self):
        model = PageModel(dynamic_fraction=1.0)
        web = make_cloudlet(page_model=model)
        url = "www.news.com"
        miss = web.browse(url, 0.0)
        for i in range(1, 8):
            web.browse(url, i * 600.0)
        stale = web.browse(url, 2 * DAY)
        assert stale.path == "stale-hit"
        assert stale.latency_s < miss.latency_s
        assert stale.energy_j < miss.energy_j


class TestOvernightUpdate:
    def test_requires_charging(self):
        web = make_cloudlet()
        web.browse("www.a.com", 0.0)
        counters = web.overnight_update(
            2 * DAY, ChargeState(charging=False, on_fast_link=True)
        )
        assert counters == {"refreshed": 0, "prefetched": 0}

    def test_refreshes_stale_pages(self):
        model = PageModel(dynamic_fraction=1.0)
        web = make_cloudlet(page_model=model)
        web.browse("www.a.com", 0.0)
        counters = web.overnight_update(2 * DAY, CHARGING)
        assert counters["refreshed"] >= 1
        # The refreshed page now serves fresh.
        outcome = web.browse("www.a.com", 2 * DAY + 60)
        assert outcome.path == "fresh-hit"

    def test_prefetch_from_community_hints(self):
        from repro.core.selection import CommunityAccessModel

        web = make_cloudlet()
        hints = CommunityAccessModel()
        hints.record("www.popular1.com", 1000)
        hints.record("www.popular2.com", 800)
        counters = web.overnight_update(DAY, CHARGING, community_hints=hints)
        assert counters["prefetched"] == 2
        assert web.browse("www.popular1.com", DAY + 60).hit

    def test_prefetch_respects_budget(self):
        from repro.core.selection import CommunityAccessModel

        web = make_cloudlet(budget_mb=1)
        hints = CommunityAccessModel()
        for i in range(50):
            hints.record(f"www.p{i}.com", 100 - i)
        web.overnight_update(DAY, CHARGING, community_hints=hints)
        assert web.store.bytes_stored <= 1 * MB


class TestStats:
    def test_revisit_heavy_stream_hits(self):
        """The paper's premise: 70% of visits are revisits to a few
        pages, so PocketWeb serves most visits locally."""
        web = make_cloudlet()
        staples = [f"www.staple{i}.com" for i in range(5)]
        t = 0.0
        for round_idx in range(40):
            for url in staples:
                web.browse(url, t)
                t += 3600.0
        assert web.hit_rate > 0.9

    def test_hit_rate_empty(self):
        assert make_cloudlet().hit_rate == 0.0
