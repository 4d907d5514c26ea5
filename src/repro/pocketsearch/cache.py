"""The PocketSearch cache: community + personalization composition
(Section 5, Figure 6).

* The **community** component is bulk-loaded from the popular
  query-result pairs mined from the search logs (Section 5.1) and gives
  the cache a warm start for users it knows nothing about.
* The **personalization** component watches the user's own queries and
  clicks: it expands the cache with pairs the community part lacks and
  re-ranks cached results with the click history (Section 5.3).

Either component can be disabled to reproduce the decompositions of
Figure 17.

The hash table is the cache's one index of cached queries: it keys each
query's slots by the query string, which the app (and the server that
mined it) holds anyway, so updates and the suggest box enumerate it
directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.pocketsearch.content import CacheContent, DEFAULT_RECORD_BYTES
from repro.pocketsearch.database import ResultDatabase
from repro.pocketsearch.hashtable import QueryHashTable, hash64
from repro.pocketsearch.ranking import PersonalizedRanker
from repro.storage.device import shallow_copy
from repro.storage.filesystem import FlashFilesystem
from repro.storage.flash import NandFlash


@dataclass(frozen=True)
class CacheLookup:
    """Outcome of a cache lookup."""

    query: str
    hit: bool
    results: List[Tuple[int, float]]  # (result hash, score), ranked
    lookup_latency_s: float


class PocketSearchCache:
    """Hash table + result database with the two cache components."""

    def __init__(
        self,
        hashtable: Optional[QueryHashTable] = None,
        database: Optional[ResultDatabase] = None,
        ranker: Optional[PersonalizedRanker] = None,
        personalization_enabled: bool = True,
    ) -> None:
        self.hashtable = hashtable or QueryHashTable()
        if database is None:
            database = ResultDatabase(FlashFilesystem(NandFlash()))
        self.database = database
        self.ranker = ranker or PersonalizedRanker()
        self.personalization_enabled = personalization_enabled
        self.hits = 0
        self.misses = 0

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_content(
        cls,
        content: CacheContent,
        database: Optional[ResultDatabase] = None,
        results_per_entry: int = 2,
        personalization_enabled: bool = True,
        ranker: Optional[PersonalizedRanker] = None,
    ) -> "PocketSearchCache":
        """Bulk-load the community component from generated content."""
        cache = cls(
            hashtable=QueryHashTable(results_per_entry=results_per_entry),
            database=database,
            ranker=ranker,
            personalization_enabled=personalization_enabled,
        )
        cache.load_community(content)
        return cache

    def copy(self) -> "PocketSearchCache":
        """An independent cache in the same state.

        The community component is the same for every phone (Section
        5.1), so a fleet loads it once into an image and gives each
        device a copy: the hash table, the result database, its flash
        filesystem and the flash counters are copied, the immutable
        ranker is shared.
        """
        clone = shallow_copy(self)
        clone.hashtable = self.hashtable.copy()
        clone.database = self.database.copy()
        return clone

    def load_community(self, content: CacheContent) -> None:
        """Insert community pairs (flags clear: not user-accessed)."""
        for entry in content.entries:
            stored = self.database.add_result(entry.url, entry.record_bytes)
            self.hashtable.insert(
                entry.query, stored.result_hash, entry.score, accessed=False
            )

    # -- service path ------------------------------------------------------------

    def lookup(self, query: str) -> CacheLookup:
        """Check the hash table for locally available results."""
        results = self.hashtable.lookup(query)
        hit = results is not None
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        return CacheLookup(
            query=query,
            hit=hit,
            results=results or [],
            lookup_latency_s=self.hashtable.lookup_latency_s,
        )

    def record_click(
        self,
        query: str,
        clicked_url: str,
        record_bytes: int = DEFAULT_RECORD_BYTES,
    ) -> None:
        """Feed one user interaction to the personalization component.

        On a previously unseen pair this caches the query and result so
        the next submission is a hit; on a cached pair it applies the
        Equations (1)-(2) score updates.  No-op when personalization is
        disabled (community-only mode).
        """
        if not self.personalization_enabled:
            return
        clicked_hash = hash64(clicked_url)
        if not self.database.contains(clicked_hash):
            self.database.add_result(clicked_url, record_bytes)
        self.ranker.record_click(self.hashtable, query, clicked_hash)

    # -- stats -------------------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def dram_bytes(self) -> int:
        return self.hashtable.footprint_bytes

    @property
    def flash_bytes(self) -> int:
        return self.database.logical_bytes

    def reset_counters(self) -> None:
        self.hits = 0
        self.misses = 0
