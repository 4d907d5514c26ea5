#!/usr/bin/env python
"""A whole phone of pocket cloudlets (the paper's end vision).

Builds a 2018-generation low-end device hosting all five cloudlets —
search, ads, web content, maps, yellow pages — on one NVM partition,
then runs a slice of a user's day across all of them.

Run: python examples/full_device.py
"""

from repro.device import PocketDevice
from repro.logs.generator import GeneratorConfig, generate_logs
from repro.logs.popularity import CommunityModel
from repro.logs.users import PopulationConfig, UserPopulation
from repro.logs.vocabulary import Vocabulary, VocabularyConfig
from repro.pocketmaps.grid import Region

GB = 1024**3
MB = 1024**2


def main() -> None:
    print("== sizing the device (Section 2 projection) ==")
    spec = PocketDevice.plan(year=2018, tier="low")
    print(f"   2018 low-end NVM: {spec.nvm_bytes / GB:.0f} GB, "
          f"cloudlet partition: {spec.partition_bytes / GB:.1f} GB")
    for name, budget in spec.budgets.items():
        print(f"   {name:8} budget: {budget / MB:8.0f} MB")

    print("== building with community search content ==")
    community = CommunityModel(
        Vocabulary.build(VocabularyConfig(n_nav_topics=600, n_non_nav_topics=900))
    )
    population = UserPopulation.build(PopulationConfig(n_users=250, seed=9))
    log = generate_logs(community, population, GeneratorConfig(months=1, seed=10))
    device = PocketDevice.build(year=2018, log=log)
    print(f"   search cache: {device.search.cache.hashtable.n_pairs} pairs, "
          f"ads: {device.ads.n_queries_with_ads} queries with banners")

    print("== a slice of the user's day ==")
    query = device.search.cache.hashtable.queries()[0]
    hit = device.search.measure_hit(query)
    print(f"   search {query!r}: hit in {hit.outcome.latency_s * 1000:.0f} ms")
    ad = device.ads.serve(query, search_hit=True)
    print(f"   local ad alongside: {ad.served[0].advertiser if ad.served else None}")

    device.maps.prefetch_region(Region(0, 0, 9000, 9000))
    view = device.maps.serve_viewport(Region.viewport(4000, 4000))
    print(f"   map viewport: {view.tiles_hit}/{view.tiles_needed} tiles local, "
          f"{view.latency_s * 1000:.0f} ms")

    device.yellow.prefetch_region(Region(0, 0, 9000, 9000))
    biz = device.yellow.search("coffee", 4000, 4000)
    print(f"   'coffee near me': {len(biz.businesses)} results, "
          f"{biz.latency_s * 1000:.0f} ms, hit={biz.hit}")

    page = device.web.browse("www.dailyread.example", 9 * 3600.0)
    again = device.web.browse("www.dailyread.example", 13 * 3600.0)
    print(f"   first page visit: {page.latency_s:.1f} s ({page.path}); "
          f"revisit: {again.latency_s:.1f} s ({again.path})")

    print("== storage report ==")
    for name, row in device.storage_report().items():
        print(f"   {name:8} {row['used_bytes'] / MB:8.1f} / "
              f"{row['budget_bytes'] / MB:.0f} MB "
              f"({row['used_frac']:.1%})")


if __name__ == "__main__":
    main()
