"""A stack-level property test: replaying arbitrary small worlds never
violates the cache's core invariants."""

from hypothesis import given, settings, strategies as st

from repro.logs.generator import GeneratorConfig, generate_logs
from repro.logs.popularity import CommunityModel
from repro.logs.users import PopulationConfig, UserPopulation
from repro.logs.vocabulary import Vocabulary, VocabularyConfig
from repro.pocketsearch.content import ContentPolicy, build_cache_content
from repro.pocketsearch.engine import PocketSearchEngine
from repro.sim.replay import CacheMode, make_cache


@given(
    seed=st.integers(min_value=0, max_value=500),
    coverage=st.floats(min_value=0.2, max_value=0.7),
)
@settings(max_examples=10, deadline=None)
def test_replay_invariants(seed, coverage):
    community = CommunityModel(
        Vocabulary.build(VocabularyConfig(n_nav_topics=60, n_non_nav_topics=80))
    )
    population = UserPopulation.build(PopulationConfig(n_users=12, seed=seed))
    log = generate_logs(
        community, population, GeneratorConfig(months=1, seed=seed)
    )
    content = build_cache_content(
        log.month(0), ContentPolicy(target_coverage=coverage)
    )
    cache = make_cache(content, CacheMode.FULL)
    engine = PocketSearchEngine(cache)
    pairs_before = cache.hashtable.n_pairs
    hits = misses = 0
    for i in range(min(log.n_events, 300)):
        query = log.query_string(int(log.query_keys[i]))
        url = log.result_url(int(log.result_keys[i]))
        outcome = engine.serve_query(query, url)
        hits += int(outcome.outcome.hit)
        misses += int(not outcome.outcome.hit)
        # Invariant: a served query is always cached afterwards.
        assert cache.hashtable.contains(query)
        # Invariant: every hit is faster than every possible miss.
        if outcome.outcome.hit:
            assert outcome.outcome.latency_s < 1.0
        else:
            assert outcome.outcome.latency_s > 3.0
    # Personalization only grows the cache.
    assert cache.hashtable.n_pairs >= pairs_before
    # Counters agree with what we observed.
    assert cache.hits == hits
    assert cache.misses == misses
    # Every cached pair's result is fetchable from the database.
    for query in cache.hashtable.queries():
        for result_hash, _score, _ in cache.hashtable.slots_for(query):
            assert cache.database.contains(result_hash)
