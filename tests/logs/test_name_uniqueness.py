"""Every name of a generated log is distinct.

The batch replay engine (:mod:`repro.sim.vectorized`) takes a query's
log key as its id and a result's key as its.  The real cache keys its
hash table by the query string's hash and its result database by the
URL's, so ids and cache entries are one to one only while no two keys
share a text.  These tests pin that for every log the generator makes:

* the community model's query strings and result URLs are distinct for
  the test fixture's vocabulary, the default one and the paper-scale
  one, and over a sweep of topic counts and alias rates.  A topic's
  queries embed its id in patterns with distinct prefixes, and the model
  numbers URLs through a dedup dict;
* the default log's personal (unique-pair) names are distinct and equal
  no community name, at each perfbench seed and the digest seed: they
  embed the pair offset.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.common import default_log
from repro.experiments.scale import PAPER_SCALE_VOCAB
from repro.logs.popularity import CommunityModel
from repro.logs.vocabulary import Vocabulary, VocabularyConfig


def assert_names_distinct(community):
    assert len(set(community.query_strings)) == community.n_queries
    assert len(set(community.result_urls)) == community.n_results


def test_fixture_names_are_distinct(small_community):
    assert_names_distinct(small_community)


@pytest.mark.parametrize(
    "config",
    [VocabularyConfig(), PAPER_SCALE_VOCAB],
    ids=["default", "paper-scale"],
)
def test_community_names_are_distinct(config):
    assert_names_distinct(CommunityModel(Vocabulary.build(config)))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    n_nav=st.integers(1, 300),
    n_non_nav=st.integers(1, 300),
    nav_alias_rate=st.floats(0, 10),
    non_nav_alias_rate=st.floats(0, 10),
    seed=st.integers(0, 2**16),
)
def test_community_names_are_distinct_over_configs(
    n_nav, n_non_nav, nav_alias_rate, non_nav_alias_rate, seed
):
    config = VocabularyConfig(
        n_nav_topics=n_nav,
        n_non_nav_topics=n_non_nav,
        nav_alias_rate=nav_alias_rate,
        non_nav_alias_rate=non_nav_alias_rate,
        seed=seed,
    )
    assert_names_distinct(CommunityModel(Vocabulary.build(config)))


@pytest.mark.parametrize("seed", [1, 7, 4099])
def test_personal_names_are_not_community_names(seed):
    log = default_log(seed=seed)
    community = log.community
    personal = list(log._unique_names.values())
    assert personal
    texts = {text for text, _url in personal}
    urls = {url for _text, url in personal}
    assert len(texts) == len(urls) == len(personal)
    assert texts.isdisjoint(community.query_strings)
    assert urls.isdisjoint(community.result_urls)
