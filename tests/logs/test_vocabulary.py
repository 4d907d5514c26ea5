"""Tests for the synthetic query/result universe."""

import numpy as np
import pytest

from repro.logs.schema import is_navigational
from repro.logs.vocabulary import Vocabulary, VocabularyConfig


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
