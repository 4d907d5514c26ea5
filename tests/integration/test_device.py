"""Tests for the PocketDevice assembler."""

import pytest

from repro.device import DEFAULT_BUDGET_SHARES, PocketDevice
from repro.pocketmaps.grid import Region

GB = 1024**3
MB = 1024**2


class TestPlan:
    def test_2018_low_end(self):
        spec = PocketDevice.plan(year=2018, tier="low")
        assert spec.nvm_bytes == 16 * GB
        assert spec.partition_bytes == int(1.6 * GB)
        assert sum(spec.budgets.values()) <= spec.partition_bytes + 5 * MB

    def test_high_end_bigger(self):
        low = PocketDevice.plan(year=2018, tier="low")
        high = PocketDevice.plan(year=2018, tier="high")
        assert high.nvm_bytes == 64 * low.nvm_bytes

    def test_custom_shares(self):
        spec = PocketDevice.plan(
            year=2018,
            budget_shares={
                "search": 0.2, "ads": 0.2, "web": 0.2, "maps": 0.2, "yellow": 0.2,
            },
        )
        values = list(spec.budgets.values())
        assert max(values) == min(values)

    def test_validation(self):
        with pytest.raises(ValueError):
            PocketDevice.plan(tier="mid")
        with pytest.raises(ValueError):
            PocketDevice.plan(budget_shares={"search": 1.0})
        with pytest.raises(ValueError):
            PocketDevice.plan(
                budget_shares={
                    "search": 0.9, "ads": 0.9, "web": 0.1, "maps": 0.1, "yellow": 0.1,
                }
            )


class TestBuild:
    def test_all_cloudlets_present(self, small_log):
        device = PocketDevice.build(year=2018, log=small_log)
        assert device.registry.names == ["ads", "maps", "search", "web", "yellow"]

    def test_search_path_works(self, small_log):
        device = PocketDevice.build(year=2018, log=small_log)
        # A community-cached query hits...
        query = device.search.cache.hashtable.queries()[0]
        result = device.search.measure_hit(query)
        assert result.outcome.hit
        # ...and ads ride along.
        ad = device.ads.serve(query, search_hit=True)
        assert ad.hit

    def test_web_and_maps_paths_work(self, small_log):
        device = PocketDevice.build(year=2018, log=small_log)
        miss = device.web.browse("www.somewhere.org", 100.0)
        assert not miss.hit
        assert device.web.browse("www.somewhere.org", 200.0).hit
        device.maps.prefetch_region(Region(0, 0, 3000, 3000))
        assert device.maps.serve_viewport(Region.viewport(1500, 1500)).hit

    def test_yellow_path_works(self, small_log):
        device = PocketDevice.build(year=2018, log=small_log)
        device.yellow.prefetch_region(Region(0, 0, 6000, 6000))
        outcome = device.yellow.search("coffee", 2000, 2000)
        assert outcome.hit

    def test_storage_report(self, small_log):
        device = PocketDevice.build(year=2018, log=small_log)
        device.maps.prefetch_region(Region(0, 0, 3000, 3000))
        report = device.storage_report()
        assert set(report) == set(DEFAULT_BUDGET_SHARES)
        assert report["maps"]["used_bytes"] > 0
        for row in report.values():
            assert 0 <= row["used_frac"] <= 1.0

    def test_build_without_content(self):
        device = PocketDevice.build(year=2018)
        assert device.search.cache.hashtable.n_pairs == 0
        # Personalization still learns.
        device.search.serve_query("brand new", "www.new.org")
        assert device.search.cache.lookup("brand new").hit
