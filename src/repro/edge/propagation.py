"""Bounded, batched popularity propagation between nodes and the origin.

Cloudlet nodes observe community demand locally; the origin update
server needs the global view to compute the next refresh.  Rather than
a chatty per-access feed, each node accumulates a bounded map of
``key -> access count`` deltas (:meth:`~repro.edge.node.EdgeNode.record_delta`)
and flushes them in batches — on its own jittered schedule during
traffic, and unconditionally at end of run.

Every flush is accounted as an
:class:`~repro.pocketsearch.manager.UpdatePatch`, the same bookkeeping
unit the single-device nightly refresh uses, so edge propagation cost
lands in the existing bytes-up/bytes-down compaction ledgers; a refresh
*back* to the nodes (origin pushing its merged top keys) is an
``UpdatePatch`` too, with the payload priced at the cache's
:data:`~repro.pocketsearch.content.DEFAULT_RECORD_BYTES` per record.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.pocketsearch.content import DEFAULT_RECORD_BYTES
from repro.pocketsearch.manager import UpdatePatch

__all__ = ["DELTA_BYTES", "OriginCoordinator"]

#: Wire size of one propagated delta: an 8-byte key hash + 4-byte count.
DELTA_BYTES = 12


class OriginCoordinator:
    """The origin's side of popularity propagation.

    Merges node delta batches into a global popularity book and accounts
    each exchange as an :class:`UpdatePatch`.  Pure synchronous
    bookkeeping — scheduling lives with the tier/nodes.
    """

    def __init__(self) -> None:
        #: merged global popularity: key -> community access count
        self.popularity: Dict[str, int] = {}
        #: running totals over every exchange's patch
        self.bytes_uploaded = 0
        self.bytes_downloaded = 0
        self.flushes = 0
        self.deltas_merged = 0
        self.refreshes = 0

    # -- node -> origin ------------------------------------------------------

    def apply_deltas(
        self, node_id: int, deltas: List[Tuple[str, int]]
    ) -> UpdatePatch:
        """Merge one node's flushed delta batch into the global book."""
        pairs_added = 0
        for key, count in deltas:
            if count <= 0:
                raise ValueError(f"delta count must be positive, got {count}")
            existing = self.popularity.get(key)
            if existing is None:
                pairs_added += 1
                self.popularity[key] = count
            else:
                self.popularity[key] = existing + count
        patch = UpdatePatch(
            bytes_uploaded=DELTA_BYTES * len(deltas),
            bytes_downloaded=0,
            pairs_added=pairs_added,
            pairs_removed=0,
            results_added=0,
        )
        self.bytes_uploaded += patch.bytes_uploaded
        self.flushes += 1
        self.deltas_merged += len(deltas)
        return patch

    # -- origin -> nodes -----------------------------------------------------

    def top_keys(self, n: int) -> List[str]:
        """The ``n`` globally hottest keys (ties broken by key)."""
        ordered = sorted(self.popularity.items(), key=lambda kv: (-kv[1], kv[0]))
        return [key for key, _ in ordered[:n]]

    def refresh_patch(self, records_pushed: int) -> UpdatePatch:
        """Account one origin -> nodes refresh of ``records_pushed`` records."""
        patch = UpdatePatch(
            bytes_uploaded=0,
            bytes_downloaded=DEFAULT_RECORD_BYTES * records_pushed,
            pairs_added=0,
            pairs_removed=0,
            results_added=records_pushed,
        )
        self.bytes_downloaded += patch.bytes_downloaded
        self.refreshes += 1
        return patch

    # -- totals --------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        return {
            "flushes": self.flushes,
            "refreshes": self.refreshes,
            "deltas_merged": self.deltas_merged,
            "distinct_keys": len(self.popularity),
            "bytes_uploaded": self.bytes_uploaded,
            "bytes_downloaded": self.bytes_downloaded,
        }
