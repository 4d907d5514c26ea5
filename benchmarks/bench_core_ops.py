"""Microbenchmarks of the hot operations on the service path."""

import numpy as np

from repro.experiments.common import default_content
from repro.pocketsearch.cache import PocketSearchCache
from repro.pocketsearch.database import ResultDatabase
from repro.pocketsearch.hashtable import QueryHashTable, hash64
from repro.storage.filesystem import FlashFilesystem
from repro.storage.flash import NandFlash


def _loaded_table():
    table = QueryHashTable()
    for entry in default_content().entries:
        table.insert(entry.query, hash64(entry.url), entry.score)
    return table


def test_hashtable_lookup_throughput(benchmark):
    table = _loaded_table()
    queries = list({e.query for e in default_content().entries})[:256]

    def lookup_all():
        for query in queries:
            table.lookup(query)

    benchmark(lookup_all)


def test_hashtable_insert_throughput(benchmark):
    content = default_content()

    def build():
        table = QueryHashTable()
        for entry in content.entries:
            table.insert(entry.query, hash64(entry.url), entry.score)
        return table

    table = benchmark(build)
    assert table.n_pairs > 0


def test_database_fetch_throughput(benchmark):
    database = ResultDatabase(FlashFilesystem(NandFlash()))
    content = default_content()
    for entry in content.entries:
        database.add_result(entry.url, entry.record_bytes)
    hashes = [hash64(e.url) for e in content.entries[:128]]

    def fetch_all():
        for h in hashes:
            database.fetch(h)

    benchmark(fetch_all)


def test_cache_lookup_throughput(benchmark):
    cache = PocketSearchCache.from_content(default_content())
    queries = cache.hashtable.queries()[:256]

    def lookup_all():
        for query in queries:
            cache.lookup(query)

    benchmark(lookup_all)


def test_community_sampling_throughput(benchmark):
    from repro.experiments.common import default_log

    community = default_log().community
    rng = np.random.default_rng(7)
    benchmark(lambda: community.sample_pairs(10_000, rng, tilt=1.15))


def test_suggest_completion_throughput(benchmark):
    from repro.pocketsearch.suggest import SuggestIndex

    cache = PocketSearchCache.from_content(default_content())
    index = SuggestIndex(cache)
    prefixes = [q[:3] for q in cache.hashtable.queries()[:128]]

    def complete_all():
        for prefix in prefixes:
            index.complete(prefix, k=5)

    benchmark(complete_all)


def test_hashtable_serialize_throughput(benchmark):
    table = _loaded_table()
    blob = benchmark(table.serialize)
    assert len(blob) > 0


def test_log_generation_throughput(benchmark):
    from repro.logs.generator import GeneratorConfig, generate_logs
    from repro.logs.popularity import CommunityModel
    from repro.logs.users import PopulationConfig, UserPopulation
    from repro.logs.vocabulary import Vocabulary, VocabularyConfig

    community = CommunityModel(
        Vocabulary.build(VocabularyConfig(n_nav_topics=500, n_non_nav_topics=800))
    )
    population = UserPopulation.build(PopulationConfig(n_users=200, seed=3))

    def generate():
        return generate_logs(
            community, population, GeneratorConfig(months=1, seed=4)
        )

    log = benchmark(generate)
    assert log.n_events > 0
