"""Cache management: the server-side update protocol (Section 5.4,
Figure 14).

Periodically (e.g. nightly, while the phone charges):

1. the phone uploads its current hash table;
2. the server drops every query-result pair the user has never accessed
   (community content that will be re-added only if still popular) and
   every user-accessed pair whose ranking score has decayed below a
   retention threshold;
3. the server mines the latest logs for the fresh popular set and merges
   it in, resolving score conflicts by keeping the maximum;
4. the server ships the new hash table plus per-file patch files for the
   result database.

The paper notes the whole exchange is usually under ~1.5 MB.  The
round enumerates the phone's hash table by its query strings, and both
transfer sizes are the table's ``wire_bytes``: the length of its
serialized blob, computed from the slot counts without building it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from repro.logs.generator import SearchLog
from repro.pocketsearch.cache import PocketSearchCache
from repro.pocketsearch.content import (
    CacheContent,
    ContentPolicy,
    PAPER_OPERATING_POINT,
    build_cache_content,
)
from repro.pocketsearch.database import CompactionResult, HEADER_ENTRY_BYTES
from repro.pocketsearch.hashtable import hash64


@dataclass(frozen=True)
class UpdatePatch:
    """What one update round shipped and changed."""

    bytes_uploaded: int  # phone -> server: the hash table
    bytes_downloaded: int  # server -> phone: new table + DB patches
    pairs_added: int
    pairs_removed: int
    results_added: int
    results_removed: int = 0
    #: queries cached before the round that it left with no pairs
    queries_pruned: int = 0
    compaction: Optional[CompactionResult] = None
    patch_files: Dict[int, int] = field(default_factory=dict)  # file -> bytes


class CacheUpdateServer:
    """The server half of the update protocol.

    Args:
        policy: content-selection policy for the fresh popular set.
        retention_min_score: user-accessed pairs whose score fell below
            this are dropped (the paper's "not accessed over the last 3
            months" rule, expressed through score decay).
    """

    def __init__(
        self,
        policy: ContentPolicy = PAPER_OPERATING_POINT,
        retention_min_score: float = 0.05,
        compaction_threshold: float = 0.25,
    ) -> None:
        if retention_min_score < 0:
            raise ValueError("retention_min_score must be non-negative")
        if compaction_threshold < 0:
            raise ValueError("compaction_threshold must be non-negative")
        self.policy = policy
        self.retention_min_score = retention_min_score
        #: compact when garbage exceeds this fraction of live data
        self.compaction_threshold = compaction_threshold

    def refresh(self, cache: PocketSearchCache, fresh_log: SearchLog) -> UpdatePatch:
        """Run one update round against ``cache`` in place, mining the
        fresh popular set from ``fresh_log``."""
        content = build_cache_content(fresh_log, self.policy)
        return self.refresh_with_content(cache, content)

    def refresh_with_content(
        self, cache: PocketSearchCache, content: CacheContent
    ) -> UpdatePatch:
        """Run one update round with a pre-mined popular set.

        Split out so daily-update experiments can mine each day's content
        once and apply it to many users' caches.
        """
        table = cache.hashtable
        bytes_uploaded = table.wire_bytes
        cached_before = table.queries()

        # Step 2: prune never-accessed and decayed pairs.
        pairs_removed = 0
        retained_pairs: Set[Tuple[str, int]] = set()
        min_score = self.retention_min_score
        for query in cached_before:
            slots = table.slots_for(query)
            kept = tuple(
                slot for slot in slots if slot[2] and slot[1] >= min_score
            )
            pairs_removed += len(slots) - len(kept)
            retained_pairs.update((query, slot[0]) for slot in kept)
            table.store(query, kept)

        # Step 3: merge the fresh popular content (max score wins —
        # QueryHashTable.insert already keeps the higher score).
        pairs_added = 0
        results_added = 0
        patch_files: Dict[int, int] = {}
        for entry in content.entries:
            result_hash = hash64(entry.url)
            if not cache.database.contains(result_hash):
                stored = cache.database.add_result(entry.url, entry.record_bytes)
                results_added += 1
                patch_files[stored.file_index] = (
                    patch_files.get(stored.file_index, 0)
                    + entry.record_bytes
                    + HEADER_ENTRY_BYTES
                )
            if (entry.query, result_hash) not in retained_pairs:
                pairs_added += 1
            table.insert(entry.query, result_hash, entry.score, accessed=False)

        # Step 4: count the queries the round left without pairs, then
        # garbage-collect the result database and compact its files if
        # enough garbage accumulated (a charge-time maintenance pass,
        # free in battery terms).
        queries_pruned = sum(
            1 for query in cached_before if not table.contains(query)
        )
        referenced = {
            slot[0]
            for query in table.queries()
            for slot in table.slots_for(query)
        }
        results_removed = 0
        for result_hash in list(cache.database._index):
            if result_hash not in referenced:
                cache.database.remove_result(result_hash)
                results_removed += 1
        compacted = None
        if (
            cache.database.garbage_bytes
            > self.compaction_threshold * max(cache.database.logical_bytes, 1)
        ):
            compacted = cache.database.compact()

        bytes_downloaded = table.wire_bytes + sum(patch_files.values())
        return UpdatePatch(
            bytes_uploaded=bytes_uploaded,
            bytes_downloaded=bytes_downloaded,
            pairs_added=pairs_added,
            pairs_removed=pairs_removed,
            results_added=results_added,
            results_removed=results_removed,
            queries_pruned=queries_pruned,
            compaction=compacted,
            patch_files=patch_files,
        )
