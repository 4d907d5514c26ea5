"""Query/result universe construction.

The universe is organised in *topics*.  A topic bundles the query strings
users type for one information need with the search results they click:

* a **navigational** topic has a single result (the site) reached through
  its canonical site-name query (navigational by the paper's substring
  test) plus misspelling/shortcut aliases ("yotube", "boa") that are not
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
from typing import List

import numpy as np

from repro.logs.schema import is_navigational


@dataclass(frozen=True)
class QueryDef:
    """One query string of a topic, with its share of the topic's volume."""

    text: str
    share: float
    navigational: bool


@dataclass(frozen=True)
class ResultDef:
    """One clickable result of a topic."""

    url: str
    title: str
    snippet_bytes: int
    share: float

    @property
    def record_bytes(self) -> int:
        """Bytes needed to store this result in the PocketSearch database
        (title + URL + human-readable URL + snippet), ~500 B on average as
        the paper reports."""
        return len(self.title) + 2 * len(self.url) + self.snippet_bytes


@dataclass(frozen=True)
class Topic:
    """A bundle of queries and results serving one information need."""

    topic_id: int
    navigational: bool
    weight: float
    queries: List[QueryDef]
    results: List[ResultDef]


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


_NAV_ALIAS_PATTERNS = (
    "syte{t}", "sitee{t}", "cite{t}", "sit {t}", "zite{t}", "syt {t}", "cyte{t}"
)
_NON_NAV_ALIAS_PATTERNS = (
    "topc {t}", "topik {t}", "tpc {t}", "topid {t}", "topi {t}", "tobic {t}"
)


def _snippet_bytes(rng: np.random.Generator) -> int:
    """A result's snippet size: N(500, 60) bytes clipped to [300, 700]."""
    return int(min(max(rng.normal(500, 60), 300), 700))


def _zipf_weights(n: int, s: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    w = ranks**-s
    return w / w.sum()


class Vocabulary:
    """The generated topic universe.

    Use :meth:`build` to construct one from a :class:`VocabularyConfig`.
    """

    def __init__(self, config: VocabularyConfig, topics: List[Topic]) -> None:
        self.config = config
        self.topics = topics

    @classmethod
    def build(cls, config: VocabularyConfig = VocabularyConfig()) -> "Vocabulary":
        rng = np.random.default_rng(config.seed)
        topics: List[Topic] = []
        nav_w = _zipf_weights(config.n_nav_topics, config.nav_zipf_s)
        non_nav_w = _zipf_weights(config.n_non_nav_topics, config.non_nav_zipf_s)

        for i in range(config.n_nav_topics):
            topics.append(
                cls._build_nav_topic(
                    topic_id=i,
                    weight=float(nav_w[i]) * config.nav_volume_share,
                    rank_fraction=i / config.n_nav_topics,
                    config=config,
                    rng=rng,
                )
            )
        offset = config.n_nav_topics
        for i in range(config.n_non_nav_topics):
            topics.append(
                cls._build_non_nav_topic(
                    topic_id=offset + i,
                    weight=float(non_nav_w[i]) * (1 - config.nav_volume_share),
                    rank_fraction=i / config.n_non_nav_topics,
                    config=config,
                    rng=rng,
                )
            )
        return cls(config, topics)

    @staticmethod
    def _alias_boost(rank_fraction: float) -> float:
        """Popular topics collect more misspellings and shortcuts.

        The very popular sites ("youtube", "bank of america") are typed by
        millions of users and accumulate misspelling variants ("yotube")
        and shortcuts ("boa"); tail topics are typically reached one way.
        """
        if rank_fraction < 0.05:
            return 4.0
        if rank_fraction < 0.20:
            return 2.2
        return 0.8

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _query_shares(n: int, canonical_share: float) -> List[float]:
        """Volume shares for a canonical query plus ``n - 1`` aliases."""
        if n == 1:
            return [1.0]
        alias_total = 1.0 - canonical_share
        # Aliases get geometrically decreasing shares of the alias mass.
        raw = [0.65**k for k in range(n - 1)]
        norm = sum(raw)
        return [canonical_share] + [alias_total * r / norm for r in raw]

    @classmethod
    def _build_nav_topic(
        cls,
        topic_id: int,
        weight: float,
        rank_fraction: float,
        config: VocabularyConfig,
        rng: np.random.Generator,
    ) -> Topic:
        site = f"site{topic_id}"
        url = f"www.{site}.com"
        rate = config.nav_alias_rate * cls._alias_boost(rank_fraction)
        n_aliases = min(int(rng.poisson(rate)), len(_NAV_ALIAS_PATTERNS))
        names = [site] + [
            _NAV_ALIAS_PATTERNS[k].format(t=topic_id) for k in range(n_aliases)
        ]
        shares = cls._query_shares(len(names), config.canonical_query_share)
        queries = [
            QueryDef(text=q, share=s, navigational=is_navigational(q, url))
            for q, s in zip(names, shares)
        ]
        snippet = _snippet_bytes(rng)
        results = [
            ResultDef(url=url, title=f"Site {topic_id}", snippet_bytes=snippet, share=1.0)
        ]
        if rng.random() < config.nav_extra_result_p:
            # Popular sites are also reached through a secondary page
            # (login or mobile frontend) that users click directly.
            snippet2 = _snippet_bytes(rng)
            results = [
                ResultDef(url=url, title=f"Site {topic_id}", snippet_bytes=snippet, share=0.55),
                ResultDef(
                    url=f"{url}/login",
                    title=f"Site {topic_id} login",
                    snippet_bytes=snippet2,
                    share=0.45,
                ),
            ]
        return Topic(topic_id, True, weight, queries, results)

    @classmethod
    def _build_non_nav_topic(
        cls,
        topic_id: int,
        weight: float,
        rank_fraction: float,
        config: VocabularyConfig,
        rng: np.random.Generator,
    ) -> Topic:
        name = f"topic {topic_id}"
        rate = config.non_nav_alias_rate * cls._alias_boost(rank_fraction)
        n_aliases = min(int(rng.poisson(rate)), len(_NON_NAV_ALIAS_PATTERNS))
        names = [name] + [
            _NON_NAV_ALIAS_PATTERNS[k].format(t=topic_id) for k in range(n_aliases)
        ]
        q_shares = cls._query_shares(len(names), config.canonical_query_share)

        n_results = 1 + int(rng.binomial(2, config.extra_result_p))
        shared_url = None
        if rng.random() < config.shared_result_p:
            # Popular destinations are reached from many topics (the
            # paper's "michael jackson" -> imdb example): one of this
            # topic's results is a popular navigational site.
            site = min(
                int(rng.exponential(config.shared_result_scale)),
                config.n_nav_topics - 1,
            )
            shared_url = f"www.site{site}.com"
            n_results = max(n_results, 2)
        r_raw = [0.8**k for k in range(n_results)]
        r_norm = sum(r_raw)
        results = []
        for k in range(n_results):
            snippet = _snippet_bytes(rng)
            if shared_url is not None and k == 1:
                url, title = shared_url, f"Shared site result"
            else:
                url, title = f"www.info{topic_id}.org/page{k}", f"Topic {topic_id} page {k}"
            results.append(
                ResultDef(
                    url=url,
                    title=title,
                    snippet_bytes=snippet,
                    share=r_raw[k] / r_norm,
                )
            )
        queries = [
            QueryDef(text=q, share=s, navigational=is_navigational(q, results[0].url))
            for q, s in zip(names, q_shares)
        ]
        return Topic(topic_id, False, weight, queries, results)

    # -- stats ---------------------------------------------------------------

    @property
    def n_queries(self) -> int:
        return sum(len(t.queries) for t in self.topics)

    @property
    def n_results(self) -> int:
        return sum(len(t.results) for t in self.topics)

    @property
    def n_pairs(self) -> int:
        return sum(len(t.queries) * len(t.results) for t in self.topics)
