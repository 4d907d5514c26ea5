"""Search-log analysis (Section 4 of the paper).

Implements the measurements behind Figures 4 and 5 and the repeat-rate
statistics of Section 4.2: community volume CDFs over queries and results
(overall, navigational vs non-navigational, featurephone vs smartphone),
and per-user repeatability within a month.

A *repeated query* follows the paper's definition: the user submits the
same query string and clicks the exact same search result — i.e. the same
(query, result) pair recurs in that user's stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.logs.generator import SearchLog
from repro.logs.schema import UserClass, classify_user


@dataclass(frozen=True)
class VolumeCdf:
    """Cumulative volume fraction vs number of most-popular items."""

    counts: np.ndarray  # per-item volumes, descending
    cumulative_fraction: np.ndarray

    @property
    def n_items(self) -> int:
        return len(self.counts)

    def coverage_at(self, k: int) -> float:
        """Fraction of volume covered by the top ``k`` items."""
        if k <= 0:
            return 0.0
        if self.n_items == 0:
            return 0.0
        return float(self.cumulative_fraction[min(k, self.n_items) - 1])

    def items_for_coverage(self, target: float) -> int:
        """Smallest number of top items reaching ``target`` coverage."""
        if not 0 <= target <= 1:
            raise ValueError(f"target must be in [0, 1], got {target}")
        if self.n_items == 0:
            return 0
        idx = int(np.searchsorted(self.cumulative_fraction, target, side="left"))
        return min(idx + 1, self.n_items)


def _cdf_from_keys(keys: np.ndarray) -> VolumeCdf:
    if len(keys) == 0:
        return VolumeCdf(np.array([], dtype=np.int64), np.array([], dtype=float))
    _, counts = np.unique(keys, return_counts=True)
    counts = np.sort(counts)[::-1]
    cum = np.cumsum(counts) / counts.sum()
    return VolumeCdf(counts, cum)


def query_volume_cdf(log: SearchLog) -> VolumeCdf:
    """Figure 4(a): cumulative query volume vs most popular queries."""
    return _cdf_from_keys(log.query_keys)


def result_volume_cdf(log: SearchLog) -> VolumeCdf:
    """Figure 4(b): cumulative clicked-result volume vs popular results."""
    return _cdf_from_keys(log.result_keys)


def figure4_series(log: SearchLog) -> Dict[str, Dict[str, VolumeCdf]]:
    """All Figure 4 curves: overall / nav / non-nav / device subsets."""
    subsets = {
        "all": log,
        "navigational": log.navigational_only(True),
        "non_navigational": log.navigational_only(False),
        "smartphone": log.for_device("smartphone"),
        "featurephone": log.for_device("featurephone"),
    }
    return {
        name: {
            "queries": query_volume_cdf(sub),
            "results": result_volume_cdf(sub),
        }
        for name, sub in subsets.items()
    }


# -- per-user repeatability (Figure 5, Section 4.2) ---------------------------


def user_new_pair_probability(log: SearchLog) -> Dict[int, float]:
    """Per-user probability that an event is a first-time (query, result).

    Measured within the given log window (pass ``log.month(m)`` for the
    paper's one-month horizon).  The complement is the user's repeat rate.
    """
    if log.n_events == 0:
        return {}
    stride = int(log.pair_ids.max()) + 1
    combined = log.user_ids.astype(np.int64) * stride + log.pair_ids
    unique_pairs = np.unique(combined)
    owners = unique_pairs // stride
    owner_ids, distinct_counts = np.unique(owners, return_counts=True)
    event_users, event_counts = np.unique(log.user_ids, return_counts=True)
    events_by_user = dict(zip(event_users.tolist(), event_counts.tolist()))
    return {
        int(uid): distinct / events_by_user[int(uid)]
        for uid, distinct in zip(owner_ids.tolist(), distinct_counts.tolist())
    }


def new_pair_probability_cdf(
    probabilities: Dict[int, float], grid: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Figure 5: fraction of users with new-query probability <= x."""
    if grid is None:
        grid = np.linspace(0, 1, 101)
    values = np.asarray(sorted(probabilities.values()))
    if len(values) == 0:
        return grid, np.zeros_like(grid)
    fractions = np.searchsorted(values, grid, side="right") / len(values)
    return grid, fractions


def overall_repeat_rate(log: SearchLog) -> float:
    """Query-weighted repeat fraction across all users in the window.

    The paper reports 56.5% for mobile and cites 40% for desktop.
    """
    if log.n_events == 0:
        return 0.0
    stride = int(log.pair_ids.max()) + 1
    combined = log.user_ids.astype(np.int64) * stride + log.pair_ids
    distinct = len(np.unique(combined))
    return 1.0 - distinct / log.n_events


def repeat_rate_by_class(log: SearchLog) -> Dict[UserClass, float]:
    """Repeat rate per Table 6 user class (classes from observed volume)."""
    volumes = log.user_monthly_volumes(month=0) if log.n_events else {}
    rates: Dict[UserClass, list] = {c: [] for c in UserClass}
    probs = user_new_pair_probability(log)
    for uid, prob in probs.items():
        volume = volumes.get(uid)
        if volume is None:
            continue
        user_class = classify_user(volume)
        if user_class is not None:
            rates[user_class].append(1.0 - prob)
    return {
        c: float(np.mean(v)) if v else float("nan") for c, v in rates.items()
    }


def unique_result_ratio(log: SearchLog, top_pairs: int) -> float:
    """Unique results per unique query among the top ``top_pairs`` pairs.

    The paper finds only ~60% of PocketSearch's cached results are unique
    relative to cached queries, motivating shared result storage.
    """
    if log.n_events == 0 or top_pairs <= 0:
        return 0.0
    pair_ids, counts = np.unique(log.pair_ids, return_counts=True)
    order = np.argsort(counts)[::-1][:top_pairs]
    chosen = pair_ids[order]
    mask = np.isin(log.pair_ids, chosen)
    n_queries = len(np.unique(log.query_keys[mask]))
    n_results = len(np.unique(log.result_keys[mask]))
    if n_queries == 0:
        return 0.0
    return n_results / n_queries


def observed_class_mix(log: SearchLog, month: int = 0) -> Dict[UserClass, float]:
    """Table 6: population share per class among qualifying users."""
    volumes = log.user_monthly_volumes(month=month)
    classes = [classify_user(v) for v in volumes.values()]
    qualifying = [c for c in classes if c is not None]
    if not qualifying:
        return {c: 0.0 for c in UserClass}
    return {
        c: sum(1 for x in qualifying if x is c) / len(qualifying)
        for c in UserClass
    }
