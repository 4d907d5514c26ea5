"""Personalized ranking (Section 5.3, Equations 1 and 2).

Every time the user submits query Q and clicks result R1 among cached
results {R1, R2, ...}:

* the clicked result's score is increased by 1 (Equation 1) — the maximum
  possible log-derived score, so user-selected results always float up;
* every unselected result's score decays by ``exp(-lambda)`` (Equation 2),
  so staleness pushes old favourites down.

The scores live in the query hash table; this module only encapsulates the
update rule so alternative personalization algorithms can be swapped in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.pocketsearch.hashtable import QueryHashTable


@dataclass(frozen=True)
class PersonalizedRanker:
    """Click-driven score updates.

    Attributes:
        decay_lambda: the freshness decay rate (the paper's lambda).
    """

    decay_lambda: float = 0.1

    def __post_init__(self) -> None:
        if self.decay_lambda < 0:
            raise ValueError(
                f"decay_lambda must be non-negative, got {self.decay_lambda}"
            )

    def record_click(
        self, table: QueryHashTable, query: str, clicked_result_hash: int
    ) -> None:
        """Apply Equations (1)-(2) after a click on a cached query.

        If the clicked result is not yet linked to the query (a click
        following a cache miss), a new pair is inserted with score 1, as
        Section 5.3 specifies.  The query's new slots are stored in one
        write.
        """
        decay = math.exp(-self.decay_lambda)
        clicked = False
        updated = []
        for result_hash, score, accessed in table.slots_for(query):
            if result_hash == clicked_result_hash:
                updated.append((result_hash, score + 1.0, True))
                clicked = True
            else:
                updated.append((result_hash, score * decay, accessed))
        if not clicked:
            updated.append((clicked_result_hash, 1.0, True))
        table.store(query, tuple(updated))

    def decayed_score(self, score: float, idle_updates: int) -> float:
        """Score after ``idle_updates`` unselected updates (closed form)."""
        if idle_updates < 0:
            raise ValueError("idle_updates must be non-negative")
        return score * math.exp(-self.decay_lambda * idle_updates)
