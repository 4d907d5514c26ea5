"""Columnar event batches for vectorized replay.

A :class:`SearchLog` already stores its events as parallel numpy arrays;
this module packs them into a single *struct array* (one record per
event) plus a per-user index, which is what the vectorized replay engine
(:mod:`repro.sim.vectorized`) consumes: instead of masking the full log
once per user (O(users x events)), a :class:`ColumnarEventBatch` sorts
the window once and hands out zero-copy per-user slices.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.logs.schema import QueryEvent

__all__ = [
    "EVENT_DTYPE",
    "ColumnarEventBatch",
    "events_from_struct",
    "log_to_struct_array",
]

#: One replay event, fully resolved to integer keys.  ``query_key`` /
#: ``result_key`` index the log's community + unique-pair key spaces.
EVENT_DTYPE = np.dtype(
    [
        ("user_id", np.int64),
        ("timestamp", np.float64),
        ("pair_id", np.int64),
        ("query_key", np.int64),
        ("result_key", np.int64),
        ("navigational", np.bool_),
        ("device_code", np.int8),
    ]
)


def log_to_struct_array(log) -> np.ndarray:
    """Pack a :class:`SearchLog`'s columns into one struct array.

    Row order is exactly the log's row order — the struct array is a
    lossless re-encoding, not a re-sort (see :func:`events_from_struct`
    for the round trip back to :class:`QueryEvent` records).
    """
    n = log.n_events
    out = np.empty(n, dtype=EVENT_DTYPE)
    out["user_id"] = log.user_ids
    out["timestamp"] = log.timestamps
    out["pair_id"] = log.pair_ids
    out["query_key"] = log.query_keys
    out["result_key"] = log.result_keys
    out["navigational"] = log.navigational
    out["device_code"] = log.device_codes
    return out


def events_from_struct(log, struct: np.ndarray) -> List[QueryEvent]:
    """Materialize struct-array rows back into :class:`QueryEvent` records.

    The inverse of :func:`log_to_struct_array`: resolving the integer
    keys through ``log``'s string tables reproduces ``log.events()``.
    """
    from repro.logs.generator import _DEVICE_NAMES

    return [
        QueryEvent(
            user_id=int(row["user_id"]),
            timestamp=float(row["timestamp"]),
            query=log.query_string(int(row["query_key"])),
            clicked_url=log.result_url(int(row["result_key"])),
            navigational=bool(row["navigational"]),
            device=_DEVICE_NAMES[int(row["device_code"])],
        )
        for row in struct
    ]


class ColumnarEventBatch:
    """A time window of a log, sorted by user for O(1) per-user slices.

    The sort is *stable*, so within each user the original log order
    (time order) is preserved exactly — batch construction never
    reorders a user's events relative to the scalar replay loop.
    """

    def __init__(self, struct: np.ndarray) -> None:
        order = np.argsort(struct["user_id"], kind="stable")
        self.struct = struct[order]
        if len(self.struct):
            uids = self.struct["user_id"]
            boundaries = np.flatnonzero(np.diff(uids)) + 1
            starts = np.concatenate(([0], boundaries))
            ends = np.concatenate((boundaries, [len(uids)]))
            self._slices = {
                int(uids[s]): (int(s), int(e))
                for s, e in zip(starts.tolist(), ends.tolist())
            }
        else:
            self._slices = {}

    @classmethod
    def from_log(
        cls,
        log,
        t_start: Optional[float] = None,
        t_end: Optional[float] = None,
    ) -> "ColumnarEventBatch":
        """Build a batch from a log, optionally windowed.

        The window mask is applied to the log's columns *before* packing,
        so out-of-window events are never materialized (a month-long
        window of a multi-month log only pays for its own rows).
        """
        source = log
        if t_start is not None or t_end is not None:
            lo = -np.inf if t_start is None else t_start
            hi = np.inf if t_end is None else t_end
            source = log._select((log.timestamps >= lo) & (log.timestamps < hi))
        return cls(log_to_struct_array(source))

    @property
    def n_events(self) -> int:
        return len(self.struct)

    @property
    def user_ids(self) -> List[int]:
        """Distinct user ids present, ascending."""
        return sorted(self._slices)

    def for_user(self, user_id: int) -> np.ndarray:
        """Zero-copy view of one user's events, in original log order."""
        span = self._slices.get(int(user_id))
        if span is None:
            return self.struct[0:0]
        return self.struct[span[0]: span[1]]
