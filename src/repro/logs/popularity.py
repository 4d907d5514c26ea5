"""Community popularity model: the joint distribution over query/result pairs.

Flattens a :class:`~repro.logs.vocabulary.Vocabulary` into numpy arrays of
(query, result) pairs with sampling probabilities.  This is the "community
access model" of Section 3.1: what the whole population searches for.
Individual user streams are mixtures over this model (see
:mod:`repro.logs.users`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.logs.schema import Triplet
from repro.logs.vocabulary import Vocabulary, ragged


class CommunityModel:
    """Sampling-ready flattened pair distribution.

    Attributes:
        query_strings: query text per query id.
        query_navigational: nav flag per query id.
        result_urls: URL per result id.
        result_record_bytes: stored size per result id (int64).
        pair_query: query id per pair id.
        pair_result: result id per pair id.
        pair_topic: topic id per pair id.
        pair_prob: sampling probability per pair id (sums to 1).
    """

    def __init__(self, vocabulary: Vocabulary) -> None:
        v = vocabulary
        # Result ids number the URLs by first occurrence; a result keeps
        # the record size of its first occurrence.
        url_ids: Dict[str, int] = {}
        slot_result = np.fromiter(
            (url_ids.setdefault(url, len(url_ids)) for url in v.result_url),
            dtype=np.int64,
            count=v.n_results,
        )
        first_slot = np.unique(slot_result, return_index=True)[1]
        # Each query pairs with every result of its topic, in result order.
        topic_queries = np.diff(v.query_offsets)
        query_topic = np.repeat(np.arange(len(topic_queries)), topic_queries)
        per_query = np.diff(v.result_offsets)[query_topic]
        pair_query = np.repeat(np.arange(v.n_queries), per_query)
        pair_topic = query_topic[pair_query]
        pair_slot = v.result_offsets[pair_topic] + ragged(per_query)[1]
        weights = (
            v.topic_weight[pair_topic]
            * v.query_share[pair_query]
            * v.result_share[pair_slot]
        )

        self.query_strings = v.query_text
        self.query_navigational = v.query_navigational
        self.result_urls = list(url_ids)
        self.result_record_bytes = v.result_record_bytes[first_slot]
        self.pair_query = pair_query
        self.pair_result = slot_result[pair_slot]
        self.pair_topic = pair_topic
        total = weights.sum()
        if total <= 0:
            raise ValueError("vocabulary produced zero total pair weight")
        self.pair_prob = weights / total
        #: pair ids sorted by descending probability (popularity rank order)
        self.rank_order = np.argsort(self.pair_prob)[::-1]
        self._cdf_cache: dict = {}

    # -- basic shape ----------------------------------------------------------

    @property
    def n_pairs(self) -> int:
        return len(self.pair_prob)

    @property
    def n_queries(self) -> int:
        return len(self.query_strings)

    @property
    def n_results(self) -> int:
        return len(self.result_urls)

    # -- sampling ---------------------------------------------------------------

    def sample_pairs(
        self,
        n: int,
        rng: np.random.Generator,
        tilt: float = 1.0,
    ) -> np.ndarray:
        """Draw ``n`` pair ids from the community distribution.

        Args:
            n: number of draws.
            rng: numpy random generator.
            tilt: concentration exponent; probabilities are raised to
                ``tilt`` and renormalized.  ``tilt > 1`` concentrates mass
                on popular pairs (used for featurephone users, whose
                limited browsers keep them on very popular sites);
                ``tilt < 1`` flattens (desktop-like diversity).
        """
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        if tilt <= 0:
            raise ValueError(f"tilt must be positive, got {tilt}")
        draws = self._tilted_cdf(tilt).searchsorted(rng.random(n), side="right")
        return np.minimum(draws, self.n_pairs - 1, out=draws)

    def _tilted_cdf(self, tilt: float) -> np.ndarray:
        key = round(float(tilt), 6)
        cached = self._cdf_cache.get(key)
        if cached is not None:
            return cached
        if tilt == 1.0:
            probs = self.pair_prob
        else:
            probs = self.pair_prob**tilt
            probs = probs / probs.sum()
        cdf = np.cumsum(probs)
        self._cdf_cache[key] = cdf
        return cdf

    # -- ideal (distribution-level) statistics ------------------------------------

    def cumulative_volume_by_pairs(self, k: int) -> float:
        """Fraction of total volume covered by the ``k`` most popular pairs."""
        if k <= 0:
            return 0.0
        k = min(k, self.n_pairs)
        return float(self.pair_prob[self.rank_order[:k]].sum())

    def top_pairs(self, k: int) -> np.ndarray:
        """Pair ids of the ``k`` most popular pairs."""
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        return self.rank_order[: min(k, self.n_pairs)]

    def expected_triplets(
        self, total_volume: int, limit: Optional[int] = None
    ) -> List[Triplet]:
        """Triplet rows (Table 3) under the ideal distribution.

        Args:
            total_volume: total query volume to apportion.
            limit: return only the top ``limit`` rows.
        """
        if total_volume < 0:
            raise ValueError("total_volume must be non-negative")
        order = self.rank_order if limit is None else self.rank_order[:limit]
        return [
            Triplet(
                query=self.query_strings[self.pair_query[p]],
                url=self.result_urls[self.pair_result[p]],
                volume=int(round(self.pair_prob[p] * total_volume)),
            )
            for p in order
        ]

    def describe_pair(self, pair_id: int) -> Tuple[str, str, float]:
        """(query, url, probability) of one pair."""
        return (
            self.query_strings[self.pair_query[pair_id]],
            self.result_urls[self.pair_result[pair_id]],
            float(self.pair_prob[pair_id]),
        )


#: ``ndarray.sum`` adds fewer terms than this one by one; from this many
#: on it adds them in numpy's pairwise blocks.
_PAIRWISE_SUM_MIN = 8


class PairGroups:
    """Community pairs grouped by (topic, key), with each group's cdf.

    Attributes:
        members: pair ids group by group, ascending within a group.
        cdf: per position of ``members``, the within-group cdf that
            ``rng.choice(len(ids), p=p[ids] / p[ids].sum())`` builds.
        group: group index per pair id.
        starts, sizes: per group, its first position in ``members`` and
            its number of pairs.
        totals: per group, ``p[ids].sum()`` as ``ndarray.sum`` adds it.
    """

    def __init__(
        self, pair_topic: np.ndarray, pair_key: np.ndarray, pair_prob: np.ndarray
    ) -> None:
        members = np.lexsort((pair_key, pair_topic))
        topic, key = pair_topic[members], pair_key[members]
        first = np.ones(len(members), dtype=bool)
        first[1:] = (topic[1:] != topic[:-1]) | (key[1:] != key[:-1])
        starts = np.flatnonzero(first)
        sizes = np.diff(np.append(starts, len(members)))
        group_at = np.cumsum(first) - 1
        offset = np.arange(len(members)) - starts[group_at]
        last = starts + sizes - 1

        def running_sums(values: np.ndarray) -> np.ndarray:
            # Within each group, the prefix sums ``cumsum`` computes.
            out = values.copy()
            for j in range(1, int(sizes.max())):
                at = np.flatnonzero(offset == j)
                out[at] += out[at - 1]
            return out

        prob = pair_prob[members]
        totals = running_sums(prob)[last]
        for g in np.flatnonzero(sizes >= _PAIRWISE_SUM_MIN):
            totals[g] = prob[starts[g] : last[g] + 1].sum()
        probs = prob / totals[group_at]
        # The cdf runs on into ones for the width of the largest group, so a
        # redraw may read that many entries from any group's start.
        width = int(sizes.max())
        padded = np.ones(len(members) + width - 1)
        cdf = padded[: len(members)]
        cdf[:] = running_sums(probs)
        cdf /= cdf[last][group_at]

        self.members = members
        self.cdf = cdf
        self.group = np.empty_like(group_at)
        self.group[members] = group_at
        self.starts = starts
        self.sizes = sizes
        self.totals = totals
        self._pair_prob = pair_prob
        # Per pair, its group's start and whether the group has other pairs.
        self._pair_start = starts[self.group]
        self._pair_multi = sizes[self.group] > 1
        self._padded_cdf = padded
        self._cols = np.arange(width)

    @classmethod
    def siblings(cls, community: CommunityModel) -> "PairGroups":
        """Pairs reaching the same result within the same topic.

        These are the alternative phrasings and misspellings a user may
        type for one staple destination.
        """
        return cls(community.pair_topic, community.pair_result, community.pair_prob)

    @classmethod
    def variants(cls, community: CommunityModel) -> "PairGroups":
        """Pairs with the same topic and query but different results.

        These are the alternative results a user may click for one staple
        query ("michael jackson" -> imdb on one visit, azlyrics on another).
        """
        return cls(community.pair_topic, community.pair_query, community.pair_prob)

    def group_of(self, pair_id: int) -> Tuple[np.ndarray, np.ndarray]:
        """(pair ids, normalized probabilities) of ``pair_id``'s group.

        The group includes ``pair_id`` itself.
        """
        g = self.group[pair_id]
        ids = self.members[self.starts[g] : self.starts[g] + self.sizes[g]]
        return ids, self._pair_prob[ids] / self.totals[g]

    def redraw(self, pairs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Each of ``pairs`` re-drawn from its group's distribution.

        A pair alone in its group is kept and consumes no draw; every other
        pair consumes one ``rng.random()`` double, in order.  The result
        and the generator state it leaves equal a loop over the same pairs
        of ``ids, probs = self.group_of(pair)`` and
        ``ids[rng.choice(len(ids), p=probs)]``.
        """
        out = pairs.copy()
        multi = self._pair_multi[pairs].nonzero()[0]
        if not len(multi):
            return out
        starts = self._pair_start[pairs[multi]]
        u = rng.random(len(multi))
        # ``searchsorted(cdf, u, side="right")`` within each group: the
        # first of its cdf entries above u.  A group's last entry is 1.0,
        # which no u in [0, 1) reaches, so the first lies in the group.
        above = self._padded_cdf[starts[:, None] + self._cols] > u[:, None]
        out[multi] = self.members[starts + above.argmax(axis=1)]
        return out
