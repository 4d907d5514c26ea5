"""Integration tests: every paper table/figure experiment runs and its
shape matches the paper (see EXPERIMENTS.md for the full comparison).

These are the repo's acceptance tests; they use the default-scale inputs
(built once per session) and a reduced user sample for the replay-based
figures.
"""

import numpy as np
import pytest

from repro.baselines.browser_cache import BrowserUrlCache
from repro.baselines.lru import LruQueryCache
from repro.experiments import (
    ablations,
    cachedesign,
    characterization,
    hitrate,
    performance,
    scaling,
)
from repro.experiments.common import default_content, default_log
from repro.logs.schema import MONTH_SECONDS
from repro.pocketsearch.engine import PocketSearchEngine
from repro.sim.replay import CacheMode, make_cache, select_replay_users

USERS_PER_CLASS = 40  # reduced sample for test runtime


def _baseline_user_rates(log, content, uid, t0, t1):
    """(PocketSearch, LRU, browser) hit rates of one user's stream, one
    event at a time: the reference ``baseline_hit_rates`` must equal."""
    stream = log.for_user(uid).window(t0, t1)
    cache = make_cache(content, CacheMode.FULL)
    engine = PocketSearchEngine(cache)
    lru = LruQueryCache(capacity=max(content.n_pairs, 1))
    browser = BrowserUrlCache()
    ps_hits = lru_hits = browser_hits = 0
    for i in range(stream.n_events):
        query = stream.query_string(int(stream.query_keys[i]))
        url = stream.result_url(int(stream.result_keys[i]))
        outcome = engine.serve_query(query, url)
        ps_hits += int(outcome.outcome.hit)
        if lru.lookup(query) is not None:
            lru_hits += 1
        else:
            lru.insert(query, url)
        if browser.lookup(query) is not None:
            browser_hits += 1
        browser.visit(url)
    n = max(stream.n_events, 1)
    return ps_hits / n, lru_hits / n, browser_hits / n


class TestSection2:
    def test_table1_matches_paper(self):
        rows = scaling.table1()
        assert len(rows) == 9
        assert rows[0]["tech_nm"] == 32
        assert rows[-1]["tech_nm"] == 5

    def test_figure2_milestones(self):
        m = scaling.figure2_milestones()
        assert m["high_end_2018_gb"] == pytest.approx(1024.0)
        assert m["low_end_2018_gb"] == pytest.approx(16.0)
        assert m["low_end_final_gb"] == pytest.approx(256.0)

    def test_table2_paper_rows(self):
        rows = {name: count for name, _, count in scaling.table2()}
        assert rows["web_search"] == pytest.approx(270_000, rel=0.05)
        assert rows["mapping"] == pytest.approx(5_500_000, rel=0.05)
        assert rows["web_content"] == pytest.approx(17_500, rel=0.05)


class TestSection4:
    def test_figure4_shapes(self):
        f4 = characterization.figure4()
        assert f4["all"]["query_coverage_at_k60"] == pytest.approx(0.60, abs=0.01)
        assert f4["navigational"]["query_coverage_at_k60"] >= 0.85
        assert f4["non_navigational"]["query_coverage_at_k60"] <= 0.65
        assert (
            f4["featurephone"]["query_coverage_at_k60"]
            > f4["smartphone"]["query_coverage_at_k60"]
        )

    def test_figure4_results_fewer_than_queries(self):
        f4 = characterization.figure4()
        assert f4["all"]["results_for_60pct"] < f4["all"]["queries_for_60pct"]

    def test_figure5_shape(self):
        f5 = characterization.figure5()
        assert 0.50 <= f5["mean_repeat_rate"] <= 0.68
        assert f5["users_at_most_30pct_new"] >= 0.15
        assert f5["nav_median_new"] < f5["non_nav_median_new"]

    def test_table3_descending(self):
        triplets = characterization.table3(limit=20)
        volumes = [t.volume for t in triplets]
        assert all(b <= a for a, b in zip(volumes, volumes[1:]))

    def test_mobile_vs_desktop(self):
        contrast = characterization.mobile_vs_desktop()
        assert contrast["mobile_repeat_rate"] > contrast["desktop_repeat_rate"]
        assert (
            contrast["mobile_coverage_at_k60"]
            > contrast["desktop_coverage_at_k60"] + 0.2
        )


class TestSection5Design:
    def test_figure7_diminishing_returns(self):
        curve = cachedesign.figure7()
        ks = [k for k, _ in curve]
        coverage = dict(curve)
        # Doubling the cache near the knee buys only a few points.
        mid = ks[len(ks) // 2]
        doubled = min((k for k in ks if k >= 2 * mid), default=None)
        if doubled is not None:
            assert coverage[doubled] - coverage[mid] < 0.15

    def test_figure8_footprints_grow_with_coverage(self):
        rows = cachedesign.figure8()
        dram = [r["dram_bytes"] for r in rows]
        flash = [r["flash_bytes"] for r in rows]
        assert all(b >= a for a, b in zip(dram, dram[1:]))
        assert all(b >= a for a, b in zip(flash, flash[1:]))

    def test_figure8_paper_operating_point(self):
        """Paper: ~1 MB flash / ~200 KB DRAM at 55% coverage; under 1% of
        device resources.  Our scaled log gives the same order."""
        rows = {round(r["coverage"], 2): r for r in cachedesign.figure8()}
        op = rows[0.55]
        assert 100 * 1024 <= op["flash_bytes"] <= 2 * 1024 * 1024
        assert 10 * 1024 <= op["dram_bytes"] <= 300 * 1024

    def test_figure11_minimum_at_two(self):
        rows = cachedesign.figure11()
        by_width = {r["results_per_entry"]: r["footprint_bytes"] for r in rows}
        assert min(by_width, key=by_width.get) == 2

    def test_figure12_u_shape_and_32_file_tradeoff(self):
        rows = cachedesign.figure12()
        by_files = {r["n_files"]: r for r in rows}
        best_time = min(r["mean_fetch2_s"] for r in rows)
        # 1 file is far slower than the sweet spot (header parse).
        assert by_files[1]["mean_fetch2_s"] > 3 * best_time
        # 1024 files is slower again (directory scan) and fragments badly.
        assert by_files[1024]["mean_fetch2_s"] > by_files[64]["mean_fetch2_s"]
        assert (
            by_files[1024]["fragmentation_bytes"]
            > 10 * by_files[32]["fragmentation_bytes"]
        )
        # The paper's 32 files: within ~15% of the best time at far lower
        # fragmentation than the time-optimal point.
        assert by_files[32]["mean_fetch2_s"] <= 1.15 * best_time

    def test_shared_storage_saves_flash(self):
        savings = cachedesign.shared_storage_savings()
        assert savings["savings_factor"] > 1.1
        assert savings["unique_results"] < savings["pairs"]


class TestSection61Performance:
    def test_figure15_speedups(self):
        f15 = performance.figure15()
        assert f15["pocketsearch"]["mean_latency_s"] < 0.4
        assert f15["3g"]["latency_speedup"] == pytest.approx(16, rel=0.12)
        assert f15["edge"]["latency_speedup"] == pytest.approx(25, rel=0.12)
        assert f15["802.11g"]["latency_speedup"] == pytest.approx(7, rel=0.12)

    def test_figure15_energy_ratios(self):
        f15 = performance.figure15()
        assert f15["3g"]["energy_ratio"] == pytest.approx(23, rel=0.12)
        assert f15["edge"]["energy_ratio"] == pytest.approx(41, rel=0.12)
        assert f15["802.11g"]["energy_ratio"] == pytest.approx(11, rel=0.12)

    def test_table4_breakdown(self):
        t4 = performance.table4()
        assert t4["total"]["mean_s"] == pytest.approx(0.378, abs=0.02)
        assert t4["browser_rendering_s"]["share"] > 0.9
        assert t4["hash_table_lookup_s"]["mean_s"] == pytest.approx(10e-6)
        assert 0.002 < t4["fetch_search_results_s"]["mean_s"] < 0.015

    def test_table5_navigation(self):
        t5 = performance.table5()
        assert t5["lightweight"]["speedup_pct"] == pytest.approx(28.7, abs=4)
        assert t5["heavyweight"]["speedup_pct"] == pytest.approx(16.7, abs=3)
        assert (
            t5["lightweight"]["speedup_pct"] > t5["heavyweight"]["speedup_pct"]
        )

    def test_figure16_consecutive_queries(self):
        f16 = performance.figure16()
        ps, radio = f16["pocketsearch"], f16["radio"]
        # Paper: ~4 s vs ~40 s for 10 queries; one wakeup on the radio run.
        assert 3.0 <= ps["total_s"] <= 5.0
        assert 35.0 <= radio["total_s"] <= 50.0
        assert radio["wakeups"] == 1
        # Paper: ~1500 mW with the radio vs ~900 mW without.
        assert radio["mean_power_w"] == pytest.approx(1.5, abs=0.15)
        assert ps["mean_power_w"] < radio["mean_power_w"]


class TestSection62HitRates:
    def test_table6(self):
        t6 = hitrate.table6()
        assert t6["low"]["observed_share"] == pytest.approx(0.55, abs=0.08)
        assert t6["extreme"]["observed_share"] == pytest.approx(0.01, abs=0.02)

    def test_figure17_shape(self):
        f17 = hitrate.figure17(users_per_class=USERS_PER_CLASS)
        full = f17["full"]
        community = f17["community"]
        personal = f17["personalization"]
        # Paper: ~65% overall, rising with class volume.
        assert 0.60 <= full["overall"] <= 0.78
        assert full["extreme"] > full["low"]
        # Decomposition: each component below the union; community ~55%,
        # personalization ~56.5% in the paper.
        assert community["overall"] < full["overall"]
        assert personal["overall"] < full["overall"]
        assert 0.40 <= community["overall"] <= 0.65
        assert 0.50 <= personal["overall"] <= 0.70
        # Community-only hit rate rises with class volume.
        assert community["extreme"] > community["low"]

    def test_figure17_personalization_at_least_community(self):
        """Paper: per class, personalization >= community."""
        f17 = hitrate.figure17(users_per_class=USERS_PER_CLASS)
        for user_class in ("low", "medium", "high", "extreme"):
            assert (
                f17["personalization"][user_class]
                >= f17["community"][user_class] - 0.05
            )

    def test_figure18_community_warm_start(self):
        """Paper: in week 1 the community component beats the (cold)
        personalization component, and the full cache is already at its
        month-long hit rate."""
        f18 = hitrate.figure18(users_per_class=USERS_PER_CLASS)
        week1 = f18["week1"]
        month = f18["full_month"]
        for user_class in ("low", "medium"):
            assert (
                week1["community"][user_class]
                > week1["personalization"][user_class] - 0.03
            )
        full_week1 = np.nanmean(list(week1["full"].values()))
        full_month = np.nanmean(list(month["full"].values()))
        assert full_week1 == pytest.approx(full_month, abs=0.08)

    def test_figure18_personalization_warms_up(self):
        f18 = hitrate.figure18(users_per_class=USERS_PER_CLASS)
        for user_class in ("low", "medium", "high"):
            assert (
                f18["full_month"]["personalization"][user_class]
                >= f18["week1"]["personalization"][user_class] - 0.02
            )

    def test_figure19_breakdown(self):
        f19 = hitrate.figure19(users_per_class=USERS_PER_CLASS)
        overall = f19["overall"]
        assert overall["navigational"] + overall["non_navigational"] == pytest.approx(1.0)
        # Both categories contribute materially to the hits.
        assert 0.2 <= overall["navigational"] <= 0.8
        # Heavier users' hits skew no more navigational than light users'
        # (the paper: non-nav share grows for high/extreme classes; at our
        # sample size the gradient is flat-to-positive).
        assert (
            f19["extreme"]["non_navigational"]
            > f19["low"]["non_navigational"] - 0.06
        )


class TestDailyUpdates:
    def test_section622(self):
        result = hitrate.daily_updates(users_per_class=10)
        # Paper: +1.5 points (66% vs 65%); we accept a small band around 0.
        assert -0.02 <= result["improvement"] <= 0.06
        assert result["daily_update_hit_rate"] >= result["static_hit_rate"] - 0.02

    @pytest.mark.parametrize("engine", ["scalar", "simd"])
    def test_no_engine_but_the_batch_engine(self, engine):
        with pytest.raises(ValueError):
            hitrate.daily_updates(engine=engine)


class TestAblations:
    def test_baselines_ordering(self):
        rates = ablations.baseline_hit_rates(users_per_class=8)
        assert rates["pocketsearch"] > rates["lru"]
        assert rates["pocketsearch"] > rates["browser_substring"] + 0.2
        assert rates["no_cache"] == 0.0

    def test_baselines_equal_the_per_event_reference(self):
        users_per_class, seed = 8, 23
        rates = ablations.baseline_hit_rates(
            users_per_class=users_per_class, seed=seed
        )
        log = default_log(seed=seed)
        content = default_content(seed=seed)
        users = select_replay_users(
            log, month=1, users_per_class=users_per_class
        )
        triples = [
            _baseline_user_rates(
                log, content, uid, MONTH_SECONDS, 2 * MONTH_SECONDS
            )
            for uids in users.values()
            for uid in uids
        ]
        assert rates == {
            "pocketsearch": float(np.mean([t[0] for t in triples])),
            "lru": float(np.mean([t[1] for t in triples])),
            "browser_substring": float(np.mean([t[2] for t in triples])),
            "no_cache": 0.0,
        }

    def test_ranking_lambda_sweep(self):
        sweep = ablations.ranking_lambda_sweep(
            lambdas=(0.0, 0.1), users_per_class=4
        )
        assert set(sweep) == {0.0, 0.1}
        for accuracy in sweep.values():
            assert 0 <= accuracy <= 1 or np.isnan(accuracy)

    def test_results_per_entry_cost(self):
        rows = ablations.results_per_entry_hit_cost()
        assert rows[1]["mean_chain_entries"] >= rows[2]["mean_chain_entries"]
