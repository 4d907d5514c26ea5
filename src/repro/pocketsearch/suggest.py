"""Instant result suggestions while the user types (Figure 1).

The PocketSearch prototype shows *actual search results* in the
auto-suggest box as the query is typed — possible only because cached
lookups cost microseconds, not radio seconds.  This module provides the
prefix index behind that box: cached query strings sorted for binary
search, each suggestion ranked by the best ranking score among the
query's cached results.

The paper contrasts this with contemporary phones, which either ship
every keystroke to the server over the radio or substring-match browser
history (navigational queries only).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List, Optional

from repro.pocketsearch.cache import PocketSearchCache

#: Modelled per-keystroke lookup latency: a binary search plus a short
#: scan over the prefix range, all in DRAM.
SUGGEST_LOOKUP_S = 50e-6


@dataclass(frozen=True)
class Suggestion:
    """One auto-suggest row: a cached query with its best result."""

    query: str
    top_result_hash: int
    score: float


class SuggestIndex:
    """Prefix index over the queries cached by a PocketSearch cache.

    Args:
        cache: the cache whose hash table backs the index.

    The index is rebuilt lazily: mutations to the cache are picked up on
    the next :meth:`refresh` (the engine refreshes on every suggest
    call).  Staleness is detected through the table's *version*, bumped
    whenever a query is added or dropped, not its length — a server
    update that replaces N queries with N different ones changes the
    version even though the size is unchanged.
    """

    def __init__(self, cache: PocketSearchCache) -> None:
        self.cache = cache
        self._sorted_queries: List[str] = []
        self._table_version: Optional[int] = None
        self.refresh()

    def refresh(self) -> None:
        """Re-sync the sorted query list with the cache's hash table.

        No-op when the table's version is unchanged, so calling this on
        every keystroke costs one integer compare.
        """
        table = self.cache.hashtable
        if table.version == self._table_version:
            return
        self._sorted_queries = sorted(table.queries())
        self._table_version = table.version

    @property
    def n_queries(self) -> int:
        return len(self._sorted_queries)

    def complete(self, prefix: str, k: int = 5) -> List[Suggestion]:
        """Top-``k`` cached queries starting with ``prefix``.

        Ranked by the best score among each query's cached results, so a
        staple the user clicks daily floats to the top of the box.

        Args:
            prefix: the partially typed query (leading whitespace kept,
                matching is case-insensitive).
            k: maximum suggestions to return.

        Returns:
            Suggestions in descending score order; empty for an empty
            prefix or when nothing matches.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        needle = prefix.lower()
        if not needle.strip():
            return []
        self.refresh()
        lo = bisect.bisect_left(self._sorted_queries, needle)
        suggestions: List[Suggestion] = []
        for query in self._sorted_queries[lo:]:
            if not query.lower().startswith(needle):
                break
            results = self.cache.hashtable.lookup(query)
            if not results:
                continue
            top_hash, top_score = results[0]
            suggestions.append(
                Suggestion(query=query, top_result_hash=top_hash, score=top_score)
            )
        suggestions.sort(key=lambda s: -s.score)
        return suggestions[:k]

    def lookup_latency_s(self) -> float:
        """Modelled cost of one keystroke's suggestion lookup."""
        return SUGGEST_LOOKUP_S
