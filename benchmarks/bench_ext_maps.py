"""Extension: the mapping cloudlet on a commuting workload."""

from repro.experiments import extensions
from repro.experiments.common import format_table
from repro.pocketmaps.grid import area_km2_for_tiles, states_coverable
from benchmarks.conftest import run_once

GB = 1024**3


def test_ext_maps(benchmark, report):
    result = run_once(benchmark, extensions.maps_commute)
    body = format_table(
        [
            ["corridor tiles prefetched", f"{result['prefetched_tiles']:.0f}"],
            ["viewports served", f"{result['viewports']:.0f}"],
            ["viewport hit rate", f"{result['viewport_hit_rate']:.3f}"],
            ["tile hit rate", f"{result['tile_hit_rate']:.3f}"],
            ["radio bytes saved", f"{result['radio_bytes_saved_frac']:.1%}"],
            ["store used", f"{result['store_mb']:.1f} MB"],
        ],
        ["metric", "value"],
    )
    budget = int(25.6 * GB)
    tiles = budget // (5 * 1024)
    body += (
        f"\nTable 2 check: the 25.6 GB cloudlet budget holds {tiles:,} tiles"
        f"\n= {area_km2_for_tiles(tiles):,.0f} km^2 — enough for"
        f" {', '.join(states_coverable(budget))}."
    )
    report("ext_maps", "Extension: PocketMaps commuting workload", body)
    assert result["viewport_hit_rate"] > 0.8
    assert result["radio_bytes_saved_frac"] > 0.8


def test_ext_suggest(benchmark, report):
    result = run_once(benchmark, extensions.suggest_effort, users=12)
    body = format_table(
        [
            ["cached queries tested", f"{result['hit_queries_tested']:.0f}"],
            ["topped the box before fully typed", f"{result['topped_before_full_query']:.1%}"],
            ["mean keystrokes saved", f"{result['mean_keystrokes_saved_frac']:.1%}"],
        ],
        ["metric", "value"],
    )
    body += (
        "\nFigure 1's experience: actual results appear in the"
        "\nauto-suggest box while typing — ~96% of cached queries top the"
        "\nbox early, saving ~47% of keystrokes."
    )
    report("ext_suggest", "Extension: auto-suggest effort savings", body)
    assert result["topped_before_full_query"] > 0.7


def test_ext_yellow_pages(benchmark, report):
    from repro.pocketyellow.directory import national_directory_bytes

    result = run_once(benchmark, extensions.yellow_pages_day)
    body = format_table(
        [
            ["metro tiles prefetched", f"{result['prefetched_tiles']:.0f}"],
            ["searches", f"{result['searches']:.0f}"],
            ["search hit rate", f"{result['search_hit_rate']:.3f}"],
            ["mean latency", f"{result['mean_latency_s']:.3f} s"],
            ["mean results returned", f"{result['mean_results']:.1f}"],
            ["store used", f"{result['store_mb']:.1f} MB"],
        ],
        ["metric", "value"],
    )
    national = national_directory_bytes() / GB
    body += (
        f"\nSection 7 check: the full US directory (23M businesses) needs"
        f"\n~{national:.0f} GB (paper: 'approximately 100 GB') — but a metro"
        "\narea fits in tens of MB and serves ~85% of searches locally."
    )
    report("ext_yellow", "Extension: PocketYellow metro workload", body)
    assert result["search_hit_rate"] > 0.6
