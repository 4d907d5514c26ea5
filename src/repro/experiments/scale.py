"""Paper-scale characterization run.

The default experiments use a scaled-down universe for speed.  This run
approaches the paper's absolute numbers: a ~260k-distinct-query universe
and a ~1.5M-event month, at which point the Figure 4 head sits in the
paper's own range (thousands of queries for 60% of the volume).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict

from repro.logs import analysis
from repro.logs.generator import GeneratorConfig, SearchLog, generate_logs
from repro.logs.popularity import CommunityModel
from repro.logs.schema import UserClass
from repro.logs.users import PopulationConfig, UserPopulation
from repro.logs.vocabulary import Vocabulary, VocabularyConfig
from repro.pocketsearch.content import PAPER_OPERATING_POINT, build_cache_content
from repro.sim.replay import CacheMode, ReplayConfig, run_replay

#: 5x the default topic universe and population.
PAPER_SCALE_VOCAB = VocabularyConfig(
    n_nav_topics=60_000, n_non_nav_topics=90_000, seed=7
)
PAPER_SCALE_POPULATION = PopulationConfig(n_users=10_000, seed=11)


@lru_cache(maxsize=1)
def paper_scale_log(months: int = 1, seed: int = 23) -> SearchLog:
    community = CommunityModel(Vocabulary.build(PAPER_SCALE_VOCAB))
    population = UserPopulation.build(PAPER_SCALE_POPULATION)
    return generate_logs(
        community, population, GeneratorConfig(months=months, seed=seed)
    )


def paper_scale_characterization(seed: int = 23) -> Dict[str, float]:
    """Figure 4 + cache-size statistics at near-paper scale."""
    log = paper_scale_log(seed=seed)
    month = log.month(0)
    qcdf = analysis.query_volume_cdf(month)
    rcdf = analysis.result_volume_cdf(month)
    k60 = qcdf.items_for_coverage(0.60)
    content = build_cache_content(month, PAPER_OPERATING_POINT)
    return {
        "events": float(month.n_events),
        "distinct_queries": float(qcdf.n_items),
        "queries_for_60pct": float(k60),
        "results_for_60pct": float(rcdf.items_for_coverage(0.60)),
        "head_fraction": k60 / qcdf.n_items,
        "repeat_rate": analysis.overall_repeat_rate(month),
        "cache_pairs_at_55pct": float(content.n_pairs),
        "cache_flash_kb": content.flash_bytes / 1024,
        "cache_dram_kb": content.approx_dram_bytes / 1024,
        "unique_result_ratio": content.n_unique_results
        / max(content.n_unique_queries, 1),
    }


def paper_scale_replay(
    users_per_class: int = 25,
    seed: int = 23,
    months: int = 2,
    modes=(CacheMode.FULL,),
) -> Dict[str, dict]:
    """Section 6.2 hit-rate replay at near-paper scale.

    The 10k-user population makes this the slowest replay in the repo;
    it is the workload the batch engine exists for.
    """
    log = paper_scale_log(months=months, seed=seed)
    replay = run_replay(
        log,
        ReplayConfig(users_per_class=users_per_class, seed=seed),
        modes=modes,
    )
    out: Dict[str, dict] = {}
    for mode, result in replay.items():
        by_class = result.hit_rate_by_class()
        out[mode] = {
            "overall": result.overall_hit_rate(),
            "n_users": len(result.users),
            **{c.value: by_class[c] for c in UserClass},
        }
    return out
