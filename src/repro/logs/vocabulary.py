"""Query/result universe construction.

The universe is organised in *topics*.  A topic bundles the query strings
users type for one information need with the search results they click:

* a **navigational** topic has the site itself plus, with probability
  ``nav_extra_result_p`` (0.60), a ``/login`` page users click directly
  (7,156 of the default 12,000 sites have one), reached through its
  canonical site-name query (navigational by the paper's substring test)
  plus misspelling/shortcut aliases ("yotube", "boa") that are not
  substrings of the URL;
* a **non-navigational** topic ("michael jackson") has one or two query
  phrasings and one to three clicked results with uneven click shares.

This structure produces the two alias effects the paper measured: popular
results are reached through several distinct queries (60% more queries
than results for equal volume coverage), and a query can map to multiple
results (which is why the PocketSearch hash table stores two results per
entry and chains extra entries).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np


@dataclass(frozen=True)
class VocabularyConfig:
    """Size and shape knobs of the synthetic universe.

    Defaults give a scaled-down universe (~50k distinct queries) that
    preserves the paper's fractional concentration targets; benchmarks
    scale ``n_nav_topics``/``n_non_nav_topics`` up for paper-scale runs.
    """

    n_nav_topics: int = 12_000
    n_non_nav_topics: int = 18_000
    nav_zipf_s: float = 0.95
    non_nav_zipf_s: float = 0.40
    nav_volume_share: float = 0.62
    nav_alias_rate: float = 1.3
    non_nav_alias_rate: float = 0.8
    extra_result_p: float = 0.60
    nav_extra_result_p: float = 0.60
    shared_result_p: float = 0.35
    shared_result_scale: float = 60.0
    canonical_query_share: float = 0.50
    seed: int = 7

    def __post_init__(self) -> None:
        if self.n_nav_topics <= 0 or self.n_non_nav_topics <= 0:
            raise ValueError("topic counts must be positive")
        if not 0 < self.nav_volume_share < 1:
            raise ValueError("nav_volume_share must be in (0, 1)")
        if not 0 < self.canonical_query_share <= 1:
            raise ValueError("canonical_query_share must be in (0, 1]")


#: A topic's queries by position, its canonical query first: each is its
#: prefix followed by the topic id.  A site's canonical query is a substring
#: of the site's URL and no other query is one of its topic's first URL, so
#: by the paper's test (:func:`repro.logs.schema.is_navigational`) exactly
#: the canonical queries of sites are navigational.
_NAV_QUERY_PREFIXES = ("site", "syte", "sitee", "cite", "sit ", "zite", "syt ", "cyte")
_NON_NAV_QUERY_PREFIXES = ("topic ", "topc ", "topik ", "tpc ", "topid ", "topi ", "tobic ")

#: Per result kind, the URL's text around the id and the title's bytes
#: besides the topic id's digits: a site ("Site 7"), its secondary page
#: ("Site 7 login"), then the pages of a non-navigational topic, which has
#: at most 1 + 2 results ("Topic 7 page 0").  A shared result is of the
#: site kind with the shared site's id, and is titled "Shared site result".
_RESULT_KINDS = [
    ("www.site", ".com", len("Site ")),
    ("www.site", ".com/login", len("Site  login")),
] + [("www.info", f".org/page{k}", len(f"Topic  page {k}")) for k in range(3)]


def _zipf_weights(n: int, s: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    w = ranks**-s
    return w / w.sum()


def _alias_rates(n: int, base_rate: float) -> List[float]:
    """Per-topic alias rate: popular topics collect more misspellings and
    shortcuts.

    The very popular sites ("youtube", "bank of america") are typed by
    millions of users and accumulate misspelling variants ("yotube") and
    shortcuts ("boa"); tail topics are typically reached one way.
    """
    rank_fraction = np.arange(n) / n
    boost = np.where(
        rank_fraction < 0.05, 4.0, np.where(rank_fraction < 0.20, 2.2, 0.8)
    )
    return (base_rate * boost).tolist()


def _query_shares(n: int, canonical_share: float) -> List[float]:
    """Volume shares for a canonical query plus ``n - 1`` aliases."""
    if n == 1:
        return [1.0]
    alias_total = 1.0 - canonical_share
    # Aliases get geometrically decreasing shares of the alias mass.
    raw = [0.65**k for k in range(n - 1)]
    norm = sum(raw)
    return [canonical_share] + [alias_total * r / norm for r in raw]


def _nav_result_shares(n: int) -> List[float]:
    """Click shares of a site and, when there is one, its secondary page."""
    return [1.0] if n == 1 else [0.55, 0.45]


def _result_shares(n: int) -> List[float]:
    """Click shares of a non-navigational topic's ``n`` results."""
    raw = [0.8**k for k in range(n)]
    norm = sum(raw)
    return [r / norm for r in raw]


def ragged(counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Offsets of consecutive groups of ``counts`` items (one start per
    group, then the end), and each item's position within its group."""
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets, np.arange(offsets[-1]) - np.repeat(offsets[:-1], counts)


def _share_column(
    counts: np.ndarray, shares_of: Callable[[int], List[float]]
) -> np.ndarray:
    """``shares_of(n)[k]`` for the ``k``-th item of each group, the groups
    holding ``counts`` items in turn."""
    table = np.zeros((counts.max() + 1, counts.max()))
    for n in np.unique(counts).tolist():
        table[n, :n] = shares_of(n)
    return table[np.repeat(counts, counts), ragged(counts)[1]]


@dataclass(eq=False, repr=False)
class Vocabulary:
    """The generated topic universe, as flat columns.

    Topics are numbered navigational first.  Topic ``t`` owns the queries
    ``query_offsets[t]:query_offsets[t + 1]`` of the query columns, its
    canonical query first, and the results
    ``result_offsets[t]:result_offsets[t + 1]`` of the result columns.  A
    result reached from several topics appears under each of them.

    Attributes:
        topic_navigational, topic_weight: per topic; the weights sum to 1.
        query_offsets, result_offsets: per topic, then the column's end.
        query_text, query_share, query_navigational: per query; a topic's
            shares sum to 1.
        result_url, result_share: per result; a topic's shares sum to 1.
        result_record_bytes: per result, the bytes it takes in the
            PocketSearch database (title + URL + human-readable URL +
            snippet), ~500 B on average as the paper reports.

    Use :meth:`build` to construct one from a :class:`VocabularyConfig`.
    """

    config: VocabularyConfig
    topic_navigational: np.ndarray
    topic_weight: np.ndarray
    query_offsets: np.ndarray
    query_text: List[str]
    query_share: np.ndarray
    query_navigational: np.ndarray
    result_offsets: np.ndarray
    result_url: List[str]
    result_share: np.ndarray
    result_record_bytes: np.ndarray

    @classmethod
    def build(cls, config: VocabularyConfig = VocabularyConfig()) -> "Vocabulary":
        n_nav = config.n_nav_topics
        n_topics = n_nav + config.n_non_nav_topics
        rng = np.random.default_rng(config.seed)
        # The scalar draws, topic by topic.  Poisson, binomial and the
        # ziggurat normal consume a variable number of raw words, so
        # batching them across topics would change the stream.  ``snippets``
        # holds each result's N(500, 60) snippet size in result order, a
        # topic's in one call, clipped to [300, 700] bytes below.
        n_aliases: List[int] = []
        n_results: List[int] = []
        shared_site: List[int] = [-1] * n_nav
        snippets: List[float] = []
        for rate in _alias_rates(n_nav, config.nav_alias_rate):
            n_aliases.append(min(int(rng.poisson(rate)), len(_NAV_QUERY_PREFIXES) - 1))
            snippets.append(rng.normal(500, 60))
            n_results.append(1)
            if rng.random() < config.nav_extra_result_p:
                # Popular sites are also reached through a secondary page
                # (login or mobile frontend) that users click directly.
                snippets.append(rng.normal(500, 60))
                n_results[-1] = 2
        for rate in _alias_rates(config.n_non_nav_topics, config.non_nav_alias_rate):
            n_aliases.append(min(int(rng.poisson(rate)), len(_NON_NAV_QUERY_PREFIXES) - 1))
            n = 1 + int(rng.binomial(2, config.extra_result_p))
            site = -1
            if rng.random() < config.shared_result_p:
                # Popular destinations are reached from many topics (the
                # paper's "michael jackson" -> imdb example): the topic's
                # second result is a popular navigational site.
                site = min(int(rng.exponential(config.shared_result_scale)), n_nav - 1)
                n = max(n, 2)
            shared_site.append(site)
            n_results.append(n)
            snippets += rng.normal(500, 60, n).tolist()

        # The text, a column at a time: each item is its kind's text around
        # a topic id.  A query's kind is its position in its topic, counted
        # on past the site prefixes in a non-navigational topic.
        ids = list(map(str, range(n_topics)))
        topic_queries = 1 + np.asarray(n_aliases)
        query_offsets, query_kind = ragged(topic_queries)
        query_kind[query_offsets[n_nav] :] += len(_NAV_QUERY_PREFIXES)
        query_topic = np.repeat(np.arange(n_topics), topic_queries)
        prefixes = _NAV_QUERY_PREFIXES + _NON_NAV_QUERY_PREFIXES
        query_text = [
            prefixes[k] + ids[t] for k, t in zip(query_kind.tolist(), query_topic.tolist())
        ]
        query_navigational = np.zeros(len(query_text), dtype=bool)
        query_navigational[query_offsets[:n_nav]] = True

        topic_results = np.asarray(n_results)
        result_offsets, result_kind = ragged(topic_results)
        result_kind[result_offsets[n_nav] :] += 2  # past the site kinds
        result_id = np.repeat(np.arange(n_topics), topic_results)
        url_prefix, url_suffix, kind_title_bytes = zip(*_RESULT_KINDS)
        title_bytes = np.array(kind_title_bytes, dtype=np.int64)[result_kind]
        title_bytes += np.fromiter(map(len, ids), np.int64, n_topics)[result_id]
        # A shared result, its topic's second, is the shared site's own.
        sharing = np.flatnonzero(np.asarray(shared_site) >= 0)
        shared = result_offsets[sharing] + 1
        result_kind[shared] = 0
        result_id[shared] = np.asarray(shared_site)[sharing]
        title_bytes[shared] = len("Shared site result")
        result_url = [
            url_prefix[k] + ids[t] + url_suffix[k]
            for k, t in zip(result_kind.tolist(), result_id.tolist())
        ]

        nav_weight = _zipf_weights(n_nav, config.nav_zipf_s) * config.nav_volume_share
        non_nav_weight = _zipf_weights(
            config.n_non_nav_topics, config.non_nav_zipf_s
        ) * (1 - config.nav_volume_share)
        return cls(
            config=config,
            topic_navigational=np.arange(n_topics) < n_nav,
            topic_weight=np.concatenate([nav_weight, non_nav_weight]),
            query_offsets=query_offsets,
            query_text=query_text,
            query_share=_share_column(
                topic_queries, lambda n: _query_shares(n, config.canonical_query_share)
            ),
            query_navigational=query_navigational,
            result_offsets=result_offsets,
            result_url=result_url,
            result_share=np.concatenate(
                [
                    _share_column(topic_results[:n_nav], _nav_result_shares),
                    _share_column(topic_results[n_nav:], _result_shares),
                ]
            ),
            result_record_bytes=title_bytes
            + 2 * np.fromiter(map(len, result_url), np.int64, len(result_url))
            + np.clip(snippets, 300, 700).astype(np.int64),
        )

    # -- stats ---------------------------------------------------------------

    @property
    def n_queries(self) -> int:
        return len(self.query_text)

    @property
    def n_results(self) -> int:
        return len(self.result_url)
