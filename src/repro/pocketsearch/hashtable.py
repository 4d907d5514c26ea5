"""The query hash table (Section 5.2.1, Figure 10).

Lives in DRAM and links query strings to search results.  The modelled
table is made of entries, and every entry holds:

* the 64-bit hash of the query string (salted by a chain index so a query
  with more than two results spawns additional entries);
* two (result hash, ranking score) slots;
* a 64-bit flags word — one bit per slot records whether the user has
  ever accessed that query-result pair (used by the update protocol).

Two results per entry is the footprint-minimizing choice (Figure 11):
most queries have one or two popular results, so wider entries waste
slots while single-slot entries pay the per-entry overhead once per
result.

The table keeps one immutable tuple of ``(result hash, score, accessed)``
slots per query string, in chain order.  A query with *n* slots fills
:func:`chain_entries` entries, so the entry count, the DRAM footprint
and the wire size are arithmetic over the slot counts; only
:meth:`QueryHashTable.serialize` computes the chain hashes.  A table
copy is one dict copy that shares every tuple.
"""

from __future__ import annotations

import hashlib
import struct
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from repro.storage.device import shallow_copy

#: Fixed per-entry costs, in bytes.
QUERY_HASH_BYTES = 8
RESULT_HASH_BYTES = 8
SCORE_BYTES = 4
FLAGS_BYTES = 8
#: Bucket/pointer overhead of the in-memory table structure per entry.
ENTRY_OVERHEAD_BYTES = 24

#: The paper's choice of results per entry.
DEFAULT_RESULTS_PER_ENTRY = 2

#: One cached (result hash, ranking score, accessed flag) pair.
Slot = Tuple[int, float, bool]

_HEADER = struct.Struct("<4sBI")  # magic, width, entry count
_ENTRY_HEAD = struct.Struct("<QHB")  # query hash, chain idx, slot count
_SLOT = struct.Struct("<QfB")  # result hash, score, accessed
_MAGIC = b"PSHT"


def hash64(text: str, salt: int = 0) -> int:
    """Deterministic 64-bit hash of a string (stable across runs).

    Python's built-in ``hash`` is randomized per process, so the table
    uses the first 8 bytes of MD5 instead — the paper's two-argument hash
    function is modelled by mixing ``salt`` into the digest input.
    """
    digest = hashlib.md5(f"{salt}\x00{text}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def entry_bytes(results_per_entry: int) -> int:
    """Modelled DRAM bytes of one entry with the given slot count."""
    if results_per_entry <= 0:
        raise ValueError("results_per_entry must be positive")
    return (
        ENTRY_OVERHEAD_BYTES
        + QUERY_HASH_BYTES
        + results_per_entry * (RESULT_HASH_BYTES + SCORE_BYTES)
        + FLAGS_BYTES
    )


def chain_entries(n_slots: int, width: int) -> int:
    """Entries a query's chain needs for ``n_slots`` slots, ``width``
    slots per entry."""
    return -(-n_slots // width)


def wire_bytes(n_entries: int, n_slots: int) -> int:
    """Length of a :meth:`QueryHashTable.serialize` blob."""
    return _HEADER.size + _ENTRY_HEAD.size * n_entries + _SLOT.size * n_slots


class QueryHashTable:
    """Query -> ranked search results index.

    Args:
        results_per_entry: slots per entry (the paper uses 2).
        lookup_latency_s: modelled DRAM lookup time (Table 4: ~10 us).
    """

    def __init__(
        self,
        results_per_entry: int = DEFAULT_RESULTS_PER_ENTRY,
        lookup_latency_s: float = 10e-6,
    ) -> None:
        if results_per_entry <= 0:
            raise ValueError("results_per_entry must be positive")
        if lookup_latency_s < 0:
            raise ValueError("lookup_latency_s must be non-negative")
        self.results_per_entry = results_per_entry
        self.lookup_latency_s = lookup_latency_s
        # query -> its slots in chain order; never empty.
        self._slots: Dict[str, Tuple[Slot, ...]] = {}
        #: bumped whenever a query is added or dropped
        self.version = 0

    def copy(self) -> "QueryHashTable":
        """An independent table with the same slots; the tuples are
        immutable, so they are shared."""
        clone = shallow_copy(self)
        clone._slots = dict(self._slots)
        return clone

    # -- write path ---------------------------------------------------------

    def store(self, query: str, slots: Tuple[Slot, ...]) -> None:
        """Replace the query's slots (chain order); an empty tuple drops
        the query."""
        if slots:
            if query not in self._slots:
                self.version += 1
            self._slots[query] = slots
        elif self._slots.pop(query, None) is not None:
            self.version += 1

    def insert(
        self, query: str, result_hash: int, score: float, accessed: bool = False
    ) -> None:
        """Insert or update one (query, result) pair.

        If the pair exists, its score is replaced only when the new score
        is higher (the conflict rule of Section 5.4) and the access flag
        is kept.  A new result takes the next slot in chain order.
        """
        if not 0 <= score:
            raise ValueError(f"score must be non-negative, got {score}")
        slots = self._slots.get(query, ())
        for i, (slot_hash, slot_score, slot_accessed) in enumerate(slots):
            if slot_hash == result_hash:
                updated = (
                    result_hash,
                    max(slot_score, score),
                    slot_accessed or accessed,
                )
                self.store(query, slots[:i] + (updated,) + slots[i + 1 :])
                return
        self.store(query, slots + ((result_hash, score, accessed),))

    def remove(self, query: str, result_hash: int) -> bool:
        """Remove one pair; returns whether it existed.  Later slots move
        up, so the chain never has a gap."""
        slots = self._slots.get(query, ())
        kept = tuple(slot for slot in slots if slot[0] != result_hash)
        if len(kept) == len(slots):
            return False
        self.store(query, kept)
        return True

    # -- read path --------------------------------------------------------------

    def lookup(self, query: str) -> Optional[List[Tuple[int, float]]]:
        """All (result hash, score) pairs for a query, descending score
        (ties keep chain order).  Returns ``None`` on a cache miss."""
        slots = self._slots.get(query)
        if slots is None:
            return None
        return sorted(
            [(slot[0], slot[1]) for slot in slots],
            key=itemgetter(1),
            reverse=True,
        )

    def contains(self, query: str) -> bool:
        return query in self._slots

    def slots_for(self, query: str) -> Tuple[Slot, ...]:
        """(result hash, score, accessed) per slot, in chain order."""
        return self._slots.get(query, ())

    def queries(self) -> List[str]:
        """Every cached query, in the order it was first cached."""
        return list(self._slots)

    # -- footprint ----------------------------------------------------------------

    @property
    def n_entries(self) -> int:
        width = self.results_per_entry
        return sum(
            chain_entries(len(slots), width) for slots in self._slots.values()
        )

    @property
    def n_pairs(self) -> int:
        return sum(len(slots) for slots in self._slots.values())

    @property
    def footprint_bytes(self) -> int:
        """Modelled DRAM footprint (Figure 11's y-axis)."""
        return self.n_entries * entry_bytes(self.results_per_entry)

    @property
    def wire_bytes(self) -> int:
        """Length of the :meth:`serialize` blob."""
        return wire_bytes(self.n_entries, self.n_pairs)

    # -- wire format ------------------------------------------------------------

    def serialize(self) -> bytes:
        """Encode the table as the update protocol's wire format.

        This is what the phone uploads to the server in Figure 14 and
        what the server ships back: a header (magic, width, entry count),
        then per entry its chain hash ``hash64(query, i)``, chain index
        ``i``, slot count and slots.
        """
        width = self.results_per_entry
        parts = [_HEADER.pack(_MAGIC, width, self.n_entries)]
        for query, slots in self._slots.items():
            for index, start in enumerate(range(0, len(slots), width)):
                chunk = slots[start : start + width]
                parts.append(
                    _ENTRY_HEAD.pack(hash64(query, index), index, len(chunk))
                )
                for result_hash, score, accessed in chunk:
                    parts.append(_SLOT.pack(result_hash, score, int(accessed)))
        return b"".join(parts)
