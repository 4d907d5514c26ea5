"""Tests for the synthetic query/result universe."""

from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.logs.schema import is_navigational
from repro.logs.vocabulary import Vocabulary, VocabularyConfig, _alias_rates


class TestConfigValidation:
    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            VocabularyConfig(n_nav_topics=0)

    def test_rejects_bad_shares(self):
        with pytest.raises(ValueError):
            VocabularyConfig(nav_volume_share=0.0)
        with pytest.raises(ValueError):
            VocabularyConfig(canonical_query_share=1.5)


def _span(offsets, t):
    """The column indices topic ``t`` owns, given the column's offsets."""
    return range(offsets[t], offsets[t + 1])


class TestStructure:
    def test_topic_counts(self, small_vocabulary):
        config = small_vocabulary.config
        nav = small_vocabulary.topic_navigational
        assert int(nav.sum()) == config.n_nav_topics
        assert int((~nav).sum()) == config.n_non_nav_topics

    def test_weights_sum_to_one(self, small_vocabulary):
        total = sum(small_vocabulary.topic_weight.tolist())
        assert total == pytest.approx(1.0)

    def test_query_shares_sum_to_one(self, small_vocabulary):
        v = small_vocabulary
        for t in range(50):
            shares = [v.query_share[q] for q in _span(v.query_offsets, t)]
            assert sum(shares) == pytest.approx(1.0)

    def test_result_shares_sum_to_one(self, small_vocabulary):
        v = small_vocabulary
        for t in range(50):
            shares = [v.result_share[r] for r in _span(v.result_offsets, t)]
            assert sum(shares) == pytest.approx(1.0)

    def test_nav_canonical_is_navigational(self, small_vocabulary):
        v = small_vocabulary
        for t in np.flatnonzero(v.topic_navigational):
            canonical = v.query_offsets[t]
            assert v.query_navigational[canonical]
            assert is_navigational(
                v.query_text[canonical], v.result_url[v.result_offsets[t]]
            )

    def test_aliases_are_not_navigational(self, small_vocabulary):
        v = small_vocabulary
        for t in np.flatnonzero(v.topic_navigational):
            for alias in _span(v.query_offsets, t)[1:]:
                assert not v.query_navigational[alias]

    def test_record_bytes_about_500(self, small_vocabulary):
        """The paper: ~500 bytes per stored search result."""
        sizes = small_vocabulary.result_record_bytes.tolist()
        mean = sum(sizes) / len(sizes)
        assert 400 <= mean <= 700

    def test_more_queries_than_results_overall(self, small_vocabulary):
        """Aliases make queries outnumber distinct results."""
        assert small_vocabulary.n_queries > small_vocabulary.n_results

    def test_popular_topics_have_more_aliases(self, small_vocabulary):
        v = small_vocabulary
        n_queries = np.diff(v.query_offsets)
        nav = n_queries[v.topic_navigational].tolist()
        top = nav[: len(nav) // 10]
        tail = nav[-len(nav) // 2 :]
        top_mean = sum(top) / len(top)
        tail_mean = sum(tail) / len(tail)
        assert top_mean > tail_mean

    def test_deterministic_given_seed(self):
        config = VocabularyConfig(n_nav_topics=50, n_non_nav_topics=50, seed=3)
        a = Vocabulary.build(config)
        b = Vocabulary.build(config)
        assert [a.query_text[q] for q in a.query_offsets[:-1]] == [
            b.query_text[q] for q in b.query_offsets[:-1]
        ]
        assert np.diff(a.query_offsets).tolist() == np.diff(b.query_offsets).tolist()

    def test_shared_results_reference_nav_sites(self, small_vocabulary):
        """Some non-nav topics point at popular nav site URLs."""
        v = small_vocabulary
        nav_urls = {
            v.result_url[v.result_offsets[t]]
            for t in np.flatnonzero(v.topic_navigational)
        }
        shared = [
            v.result_url[r]
            for t in np.flatnonzero(~v.topic_navigational)
            for r in _span(v.result_offsets, t)
            if v.result_url[r] in nav_urls
        ]
        assert len(shared) > 0


# -- the per-topic reference builder ------------------------------------------
#
# ``Vocabulary.build`` writes its text columns in one pass per column and
# takes the navigational flag from the query's pattern.  The builder below
# is the per-topic one it replaced: one scalar draw per call, each topic's
# strings from its own format patterns, titles built for their length, and
# the flag from the paper's substring test against the topic's first URL.

_NAV_ALIAS_PATTERNS = (
    "syte{t}", "sitee{t}", "cite{t}", "sit {t}", "zite{t}", "syt {t}", "cyte{t}"
)
_NON_NAV_ALIAS_PATTERNS = (
    "topc {t}", "topik {t}", "tpc {t}", "topid {t}", "topi {t}", "tobic {t}"
)


def topic_queries(topic_id: int, n_aliases: int, navigational: bool) -> List[str]:
    """A topic's canonical query, then its aliases."""
    if navigational:
        canonical, patterns = f"site{topic_id}", _NAV_ALIAS_PATTERNS
    else:
        canonical, patterns = f"topic {topic_id}", _NON_NAV_ALIAS_PATTERNS
    return [canonical] + [p.format(t=topic_id) for p in patterns[:n_aliases]]


def topic_results(
    topic_id: int, n_results: int, navigational: bool, shared_site: int
) -> Tuple[List[str], List[str]]:
    """URLs and titles of a topic's results.

    A site's second result is its secondary page; a non-navigational
    topic's second result is site ``shared_site`` unless that is negative.
    """
    if navigational:
        url = f"www.site{topic_id}.com"
        urls = [url, f"{url}/login"]
        titles = [f"Site {topic_id}", f"Site {topic_id} login"]
        return urls[:n_results], titles[:n_results]
    urls = [f"www.info{topic_id}.org/page{k}" for k in range(n_results)]
    titles = [f"Topic {topic_id} page {k}" for k in range(n_results)]
    if shared_site >= 0:
        urls[1], titles[1] = f"www.site{shared_site}.com", "Shared site result"
    return urls, titles


def reference_columns(config: VocabularyConfig) -> dict:
    """``query_text``, ``query_navigational``, ``result_url`` and
    ``result_record_bytes`` as the per-topic builder makes them."""
    n_nav = config.n_nav_topics
    rng = np.random.default_rng(config.seed)
    topics = []  # (n_aliases, n_results, shared site) per topic
    snippets = []
    for rate in _alias_rates(n_nav, config.nav_alias_rate):
        n_aliases = min(int(rng.poisson(rate)), len(_NAV_ALIAS_PATTERNS))
        snippets.append(rng.normal(500, 60))
        n = 1
        if rng.random() < config.nav_extra_result_p:
            snippets.append(rng.normal(500, 60))
            n = 2
        topics.append((n_aliases, n, -1))
    for rate in _alias_rates(config.n_non_nav_topics, config.non_nav_alias_rate):
        n_aliases = min(int(rng.poisson(rate)), len(_NON_NAV_ALIAS_PATTERNS))
        n = 1 + int(rng.binomial(2, config.extra_result_p))
        site = -1
        if rng.random() < config.shared_result_p:
            site = min(int(rng.exponential(config.shared_result_scale)), n_nav - 1)
            n = max(n, 2)
        topics.append((n_aliases, n, site))
        snippets.extend([rng.normal(500, 60) for _ in range(n)])

    query_text, query_navigational, result_url, record_bytes = [], [], [], []
    for t, (n_aliases, n, site) in enumerate(topics):
        urls, titles = topic_results(t, n, t < n_nav, site)
        for query in topic_queries(t, n_aliases, t < n_nav):
            query_text.append(query)
            query_navigational.append(is_navigational(query, urls[0]))
        result_url += urls
        record_bytes += [len(title) + 2 * len(url) for url, title in zip(urls, titles)]
    return {
        "query_text": query_text,
        "query_navigational": np.array(query_navigational, dtype=bool),
        "result_url": result_url,
        "result_record_bytes": np.asarray(record_bytes, dtype=np.int64)
        + np.clip(snippets, 300, 700).astype(np.int64),
    }


def assert_matches_reference(config: VocabularyConfig) -> None:
    v = Vocabulary.build(config)
    want = reference_columns(config)
    assert v.query_text == want["query_text"]
    assert v.result_url == want["result_url"]
    for name in ("query_navigational", "result_record_bytes"):
        got = getattr(v, name)
        assert got.dtype == want[name].dtype, name
        assert got.tobytes() == want[name].tobytes(), name


#: Topic counts from 1 up, around the 9/10, 99/100 and 999/1000 digit
#: boundaries of topic ids (and of shared-site ids, which are nav ids).
topic_counts = st.one_of(
    st.integers(1, 12), st.integers(90, 110), st.integers(990, 1010)
)
probabilities = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))


class TestMatchesPerTopicBuilder:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n_nav=topic_counts,
        n_non_nav=topic_counts,
        nav_alias_rate=st.floats(0.0, 10.0),
        non_nav_alias_rate=st.floats(0.0, 10.0),
        extra_result_p=probabilities,
        nav_extra_result_p=probabilities,
        shared_result_p=probabilities,
        seed=st.integers(0, 2**32 - 1),
    )
    def test_over_configs(
        self,
        n_nav,
        n_non_nav,
        nav_alias_rate,
        non_nav_alias_rate,
        extra_result_p,
        nav_extra_result_p,
        shared_result_p,
        seed,
    ):
        assert_matches_reference(
            VocabularyConfig(
                n_nav_topics=n_nav,
                n_non_nav_topics=n_non_nav,
                nav_alias_rate=nav_alias_rate,
                non_nav_alias_rate=non_nav_alias_rate,
                extra_result_p=extra_result_p,
                nav_extra_result_p=nav_extra_result_p,
                shared_result_p=shared_result_p,
                seed=seed,
            )
        )

    def test_default_vocabulary(self):
        assert_matches_reference(VocabularyConfig())
