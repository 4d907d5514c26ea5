"""Tests for the community popularity model."""

import gc

import numpy as np
import pytest

from repro.logs.generator import GeneratorConfig, generate_logs
from repro.logs.popularity import CommunityModel, PairGroups
from repro.logs.schema import Triplet
from repro.logs.vocabulary import Vocabulary, VocabularyConfig


class TestFlattening:
    def test_probabilities_sum_to_one(self, small_community):
        assert small_community.pair_prob.sum() == pytest.approx(1.0)

    def test_pair_arrays_aligned(self, small_community):
        cm = small_community
        assert len(cm.pair_query) == len(cm.pair_result) == cm.n_pairs
        assert cm.pair_query.max() < cm.n_queries
        assert cm.pair_result.max() < cm.n_results

    def test_urls_deduplicated(self, small_community):
        assert len(set(small_community.result_urls)) == small_community.n_results

    def test_rank_order_descending(self, small_community):
        probs = small_community.pair_prob[small_community.rank_order]
        assert all(b <= a for a, b in zip(probs, probs[1:]))


def tracked_reachable(root) -> int:
    """Objects the cyclic collector tracks among those reachable from
    ``root`` through ``gc.get_referents``, classes not entered."""
    seen = {id(root)}
    stack = [root]
    count = 0
    while stack:
        obj = stack.pop()
        count += gc.is_tracked(obj)
        for ref in gc.get_referents(obj):
            if not isinstance(ref, type) and id(ref) not in seen:
                seen.add(id(ref))
                stack.append(ref)
    return count


class TestFootprint:
    def test_no_object_per_item(self, small_population):
        """The model is columns: a four times larger universe, sampled by
        the same population, leaves the collector as many objects to walk."""
        counts = []
        for n_nav, n_non_nav in ((300, 400), (1200, 1600)):
            config = VocabularyConfig(
                n_nav_topics=n_nav, n_non_nav_topics=n_non_nav, seed=7
            )
            community = CommunityModel(Vocabulary.build(config))
            generate_logs(
                community=community,
                population=small_population,
                config=GeneratorConfig(months=1, seed=23),
            )
            counts.append(tracked_reachable(community))
        assert counts[0] == counts[1]


class TestSampling:
    def test_sample_respects_popularity(self, small_community):
        rng = np.random.default_rng(1)
        draws = small_community.sample_pairs(20_000, rng)
        top = set(small_community.top_pairs(10).tolist())
        top_share = np.isin(draws, list(top)).mean()
        tail = set(small_community.rank_order[-10:].tolist())
        tail_share = np.isin(draws, list(tail)).mean()
        assert top_share > tail_share

    def test_tilt_concentrates(self, small_community):
        rng = np.random.default_rng(2)
        flat = small_community.sample_pairs(20_000, rng, tilt=0.6)
        sharp = small_community.sample_pairs(20_000, rng, tilt=1.5)
        top = set(small_community.top_pairs(20).tolist())
        assert np.isin(sharp, list(top)).mean() > np.isin(flat, list(top)).mean()

    def test_invalid_args(self, small_community):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            small_community.sample_pairs(-1, rng)
        with pytest.raises(ValueError):
            small_community.sample_pairs(1, rng, tilt=0)

    def test_zero_draws(self, small_community):
        rng = np.random.default_rng(4)
        assert len(small_community.sample_pairs(0, rng)) == 0


class TestIdealStats:
    def test_cumulative_volume_monotone(self, small_community):
        values = [
            small_community.cumulative_volume_by_pairs(k)
            for k in (0, 10, 100, 1000)
        ]
        assert values[0] == 0.0
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_cumulative_volume_saturates(self, small_community):
        assert small_community.cumulative_volume_by_pairs(
            small_community.n_pairs * 2
        ) == pytest.approx(1.0)

    def test_expected_triplets(self, small_community):
        triplets = small_community.expected_triplets(1_000_000, limit=10)
        assert len(triplets) == 10
        assert all(isinstance(t, Triplet) for t in triplets)
        volumes = [t.volume for t in triplets]
        assert all(b <= a for a, b in zip(volumes, volumes[1:]))

    def test_negative_volume_rejected(self, small_community):
        with pytest.raises(ValueError):
            small_community.expected_triplets(-1)


class TestSiblingsAndVariants:
    def test_siblings_share_result(self, small_community):
        cm = small_community
        pair = int(cm.rank_order[0])
        ids, probs = PairGroups.siblings(cm).group_of(pair)
        assert pair in ids.tolist()
        assert probs.sum() == pytest.approx(1.0)
        assert len(set(cm.pair_result[ids].tolist())) == 1

    def test_variants_share_query(self, small_community):
        cm = small_community
        pair = int(cm.rank_order[0])
        ids, probs = PairGroups.variants(cm).group_of(pair)
        assert pair in ids.tolist()
        assert probs.sum() == pytest.approx(1.0)
        assert len(set(cm.pair_query[ids].tolist())) == 1

    def test_describe_pair(self, small_community):
        query, url, prob = small_community.describe_pair(0)
        assert isinstance(query, str) and isinstance(url, str)
        assert 0 < prob <= 1
