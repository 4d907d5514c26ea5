"""Extension: the PocketWeb content cloudlet (intro, Section 3.2)."""

from repro.experiments import extensions
from repro.experiments.common import format_table
from benchmarks.conftest import run_once


def test_ext_pocketweb(benchmark, report):
    result = run_once(benchmark, extensions.pocketweb_replay, users=20)
    body = format_table(
        [
            ["users replayed", f"{result['users']:.0f}"],
            ["page visits", f"{result['visits']:.0f}"],
            ["visit hit rate", f"{result['mean_hit_rate']:.3f}"],
            ["radio bytes saved", f"{result['radio_bytes_saved_frac']:.1%}"],
            ["energy advantage vs all-3G", f"{result['energy_ratio_vs_3g']:.2f}x"],
        ],
        ["metric", "value"],
    )
    body += (
        "\nthe paper's premise — 70% of web visits are revisits to a"
        "\nhandful of pages — would let an overnight-prefetched page cache"
        "\nserve ~70% of visits without the radio; this 20-user sample"
        "\nserves ~58%, below that premise."
    )
    report("ext_pocketweb", "Extension: PocketWeb content cloudlet", body)
    assert result["mean_hit_rate"] > 0.55
    assert result["radio_bytes_saved_frac"] > 0.5
