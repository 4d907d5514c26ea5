"""Cache content generation (Section 5.1).

From the mobile search logs, extract <query, search result, volume>
triplets sorted by volume (Table 3), then walk down the list adding pairs
until either a memory threshold (flash or DRAM bytes) or the cache
saturation threshold (normalized pair volume below ``Vth``) is reached.
Each selected pair gets a ranking score: its volume normalized across all
results clicked for the same query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.logs.generator import LogNames, SearchLog
from repro.logs.schema import Triplet

#: Bytes one cached search result occupies in the flash database, on
#: average, when no explicit record size is known (the paper: ~500 B).
DEFAULT_RECORD_BYTES = 500


@dataclass(frozen=True)
class CacheEntry:
    """One selected (query, result) pair with its ranking score."""

    query: str
    url: str
    volume: int
    score: float
    navigational: bool
    record_bytes: int = DEFAULT_RECORD_BYTES

    def __post_init__(self) -> None:
        if self.volume < 0:
            raise ValueError("volume must be non-negative")
        if not 0 <= self.score <= 1.0000001:
            raise ValueError(f"score must be in [0, 1], got {self.score}")


@dataclass(frozen=True)
class ContentPolicy:
    """Which threshold stops the selection walk (Section 5.1).

    Exactly one of the thresholds may be set; when several are given, the
    walk stops at the first one reached — mirroring the paper, where the
    saturation threshold is in practice reached long before memory limits.

    Attributes:
        saturation_volume: stop when a pair's normalized volume drops
            below this fraction of total volume (``Vth``).
        max_flash_bytes: stop before exceeding this flash budget.
        max_dram_bytes: stop before exceeding this DRAM (hash table) budget.
        max_pairs: hard cap on the number of pairs (for sweeps).
        target_coverage: stop once cumulative volume coverage reaches this
            fraction (convenience used by the paper's "55% of cumulative
            volume" operating point).
    """

    saturation_volume: Optional[float] = None
    max_flash_bytes: Optional[int] = None
    max_dram_bytes: Optional[int] = None
    max_pairs: Optional[int] = None
    target_coverage: Optional[float] = None

    def __post_init__(self) -> None:
        if all(
            v is None
            for v in (
                self.saturation_volume,
                self.max_flash_bytes,
                self.max_dram_bytes,
                self.max_pairs,
                self.target_coverage,
            )
        ):
            raise ValueError("at least one threshold must be set")
        if self.saturation_volume is not None and self.saturation_volume <= 0:
            raise ValueError("saturation_volume must be positive")
        if self.target_coverage is not None and not 0 < self.target_coverage <= 1:
            raise ValueError("target_coverage must be in (0, 1]")


#: The paper's operating point: pairs covering ~55% of cumulative volume.
PAPER_OPERATING_POINT = ContentPolicy(target_coverage=0.55)

#: Approximate DRAM hash-table bytes per cached pair (used for the DRAM
#: threshold during the selection walk; the exact figure comes from
#: :class:`repro.pocketsearch.hashtable.QueryHashTable`).
APPROX_DRAM_BYTES_PER_PAIR = 40


class PairColumns(NamedTuple):
    """A mined content's selected pairs, one element per pair in walk
    order: int64 query and result keys, volumes and the window volume of
    each pair's query, the navigational flags and the stored record
    sizes, plus the log's name tables to resolve the keys' text."""

    query_keys: np.ndarray
    result_keys: np.ndarray
    volumes: np.ndarray
    query_totals: np.ndarray
    navigational: np.ndarray
    record_bytes: np.ndarray
    names: LogNames

    def entries(self) -> List[CacheEntry]:
        return [
            CacheEntry(
                query=self.names.query_string(qkey),
                url=self.names.result_url(rkey),
                volume=volume,
                score=volume / query_total,
                navigational=navigational,
                record_bytes=record_bytes,
            )
            for qkey, rkey, volume, query_total, navigational, record_bytes
            in zip(
                self.query_keys.tolist(),
                self.result_keys.tolist(),
                self.volumes.tolist(),
                self.query_totals.tolist(),
                self.navigational.tolist(),
                self.record_bytes.tolist(),
            )
        ]


class CacheContent:
    """The outcome of cache content generation.

    A content built from entries holds them as given.  A content mined
    from a log holds its pairs as :class:`PairColumns` (``columns``) and
    builds its :class:`CacheEntry` list the first time :attr:`entries` is
    read; its volumes are known without it.  The columns keep the log's
    name tables, never the mined window's event arrays.  Either way two
    contents are equal when their entries and volumes are.
    """

    __hash__ = None  # mutable, compared by value

    def __init__(
        self, entries: List[CacheEntry], total_log_volume: int
    ) -> None:
        self._entries: Optional[List[CacheEntry]] = entries
        self.columns: Optional[PairColumns] = None
        self.total_log_volume = total_log_volume
        self.covered_volume = sum(e.volume for e in entries)

    @classmethod
    def from_columns(
        cls, columns: PairColumns, total_log_volume: int
    ) -> "CacheContent":
        """A mined content, whose entries ``columns`` builds when read."""
        content = cls.__new__(cls)
        content._entries = None
        content.columns = columns
        content.total_log_volume = total_log_volume
        content.covered_volume = int(columns.volumes.sum())
        return content

    @property
    def entries(self) -> List[CacheEntry]:
        if self._entries is None:
            self._entries = self.columns.entries()
        return self._entries

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CacheContent):
            return NotImplemented
        return (
            self.total_log_volume == other.total_log_volume
            and self.covered_volume == other.covered_volume
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return (
            f"CacheContent(entries={self.entries!r}, "
            f"total_log_volume={self.total_log_volume!r}, "
            f"covered_volume={self.covered_volume!r})"
        )

    @property
    def n_pairs(self) -> int:
        if self.columns is not None:
            return len(self.columns.volumes)
        return len(self.entries)

    @property
    def n_unique_queries(self) -> int:
        return len({e.query for e in self.entries})

    @property
    def n_unique_results(self) -> int:
        return len({e.url for e in self.entries})

    @property
    def coverage(self) -> float:
        """Fraction of log volume the cached pairs account for."""
        if self.total_log_volume == 0:
            return 0.0
        return self.covered_volume / self.total_log_volume

    @property
    def flash_bytes(self) -> int:
        """Flash footprint with shared result storage (each URL once)."""
        seen: Dict[str, int] = {}
        for e in self.entries:
            seen.setdefault(e.url, e.record_bytes)
        return sum(seen.values())

    @property
    def flash_bytes_unshared(self) -> int:
        """Flash footprint if every pair stored its own result page
        (the design the paper rejects; ~8x larger in their data)."""
        return sum(e.record_bytes for e in self.entries)

    @property
    def approx_dram_bytes(self) -> int:
        return self.n_pairs * APPROX_DRAM_BYTES_PER_PAIR


def triplets_from_log(log: SearchLog) -> List[Triplet]:
    """Extract Table 3: (query, result, volume) sorted by volume desc."""
    if log.n_events == 0:
        return []
    pair_ids, volumes, first_idx = _pair_stats(log)
    return [
        Triplet(
            query=log.query_string(int(log.query_keys[idx])),
            url=log.result_url(int(log.result_keys[idx])),
            volume=int(volume),
        )
        for idx, volume in zip(first_idx.tolist(), volumes.tolist())
    ]


def _pair_stats(log: SearchLog) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(pair_ids desc by volume, volumes, first event index per pair)."""
    pair_ids, first_idx, counts = np.unique(
        log.pair_ids, return_index=True, return_counts=True
    )
    order = _volume_order(counts)
    return pair_ids[order], counts[order], first_idx[order]


def _volume_order(counts: np.ndarray) -> np.ndarray:
    """Pair positions by descending volume: the selection walk's order.

    ``counts`` holds the volume of each pair present, in ascending pair
    id, as ``np.unique`` returns it.  numpy's default sort is not stable,
    so tied pairs land where this exact call on this exact array puts
    them; every miner feeds it that array to keep contents identical.
    """
    return np.argsort(counts)[::-1]


def build_cache_content(
    log: SearchLog,
    policy: ContentPolicy = PAPER_OPERATING_POINT,
) -> CacheContent:
    """Run the Section 5.1 selection walk over a log.

    Ranking scores are computed per query: each pair's volume divided by
    the total volume of all *selected-universe* results for that query
    (the paper normalizes across the results that correspond to the
    query).

    Args:
        log: the (typically one-month) search log to mine.
        policy: the stopping rule.

    Returns:
        A :class:`CacheContent` with entries in descending volume order.
    """
    _, first_idx, counts = np.unique(
        log.pair_ids, return_index=True, return_counts=True
    )
    queries, query_of_pair = np.unique(
        log.query_keys[first_idx], return_inverse=True
    )
    query_totals = np.zeros(len(queries), dtype=np.int64)
    np.add.at(query_totals, query_of_pair, counts)
    return _select_pairs(
        log, counts, first_idx, query_totals[query_of_pair], policy
    )


def build_trailing_contents(
    log: SearchLog,
    t_ends: Sequence[float],
    width: float,
    policy: ContentPolicy = PAPER_OPERATING_POINT,
) -> List[CacheContent]:
    """Mine equal-width trailing windows in one sliding pass.

    Entry ``k`` equals ``build_cache_content(log.window(t_ends[k] - width,
    t_ends[k]), policy)``, but the log is read once: the rows of the
    whole span are bucketed by the windows' boundaries, and per-pair and
    per-query counts slide from one window to the next by adding the
    buckets that enter and subtracting those that leave.  A pair's query
    key, result key and navigational flag are functions of its pair id,
    so any of its rows supplies them.

    Args:
        log: the search log to mine.
        t_ends: window ends, non-decreasing (repeats allowed).
        width: every window's length in seconds; positive.
        policy: the stopping rule.
    """
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    ends = np.asarray(t_ends, dtype=np.float64)
    if np.any(ends[1:] < ends[:-1]):
        raise ValueError("t_ends must be non-decreasing")
    if not len(ends):
        return []
    starts = ends - width
    timestamps = log.timestamps
    span = np.flatnonzero((timestamps >= starts[0]) & (timestamps < ends[-1]))
    _, first, pair_of_row = np.unique(
        log.pair_ids[span], return_index=True, return_inverse=True
    )
    pair_rows = span[first]
    queries, query_of_pair = np.unique(
        log.query_keys[pair_rows], return_inverse=True
    )
    # Bucket j holds the rows with edges[j] <= t < edges[j + 1], so a
    # window [starts[k], ends[k]) is a run of whole buckets: the same
    # >= / < tests as SearchLog.window.
    edges = np.unique(np.concatenate([starts, ends]))
    bucket = np.searchsorted(edges, timestamps[span], side="right") - 1
    by_bucket = np.argsort(bucket)
    pair_of_row = pair_of_row[by_bucket]
    query_of_row = query_of_pair[pair_of_row]
    bucket_start = np.searchsorted(bucket[by_bucket], np.arange(len(edges)))

    def bucket_counts(lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
        """Per-pair and per-query counts of buckets ``[lo, hi)``."""
        rows = slice(bucket_start[lo], bucket_start[hi])  # empty if lo >= hi
        return (
            np.bincount(pair_of_row[rows], minlength=len(pair_rows)),
            np.bincount(query_of_row[rows], minlength=len(queries)),
        )

    counts = np.zeros(len(pair_rows), dtype=np.int64)
    query_counts = np.zeros(len(queries), dtype=np.int64)
    contents = []
    lo_prev = hi_prev = 0
    for lo, hi in zip(
        np.searchsorted(edges, starts).tolist(),
        np.searchsorted(edges, ends).tolist(),
    ):
        pairs_in, queries_in = bucket_counts(max(lo, hi_prev), hi)
        pairs_out, queries_out = bucket_counts(lo_prev, min(hi_prev, lo))
        counts += pairs_in - pairs_out
        query_counts += queries_in - queries_out
        lo_prev, hi_prev = lo, hi
        present = np.flatnonzero(counts)
        contents.append(
            _select_pairs(
                log,
                counts[present],
                pair_rows[present],
                query_counts[query_of_pair[present]],
                policy,
            )
        )
    return contents


def _select_pairs(
    log: SearchLog,
    counts: np.ndarray,
    rows: np.ndarray,
    query_totals: np.ndarray,
    policy: ContentPolicy,
) -> CacheContent:
    """The Section 5.1 selection walk over one window's pairs.

    The arrays are aligned, one element per pair present in the window,
    in ascending pair id: ``counts`` is the pair's volume (int64),
    ``rows`` any row of ``log`` holding the pair, and ``query_totals``
    the window volume of the pair's query.

    Every threshold but the flash budget is a function of the pair's
    position in volume order, so the walk's stop is the first position
    where one of them holds.  Array division of the int64 volumes equals
    Python's int division while volumes stay below 2**53.  The flash
    budget depends on which URLs earlier pairs took, so a loop over the
    prefix that the others leave checks it.  The selected pairs stay
    columns (:class:`PairColumns`) read from ``log``'s rows; the content
    keeps ``log``'s name tables, not ``log``.
    """
    if not len(counts):
        return CacheContent(entries=[], total_log_volume=0)
    order = _volume_order(counts)
    volumes = counts[order]
    total_volume = int(volumes.sum())
    n = len(volumes)

    stops = [n]
    if policy.saturation_volume is not None:
        stops.append(
            _first(volumes / total_volume < policy.saturation_volume)
        )
    if policy.max_pairs is not None:
        stops.append(max(policy.max_pairs, 0))
    if policy.target_coverage is not None:
        covered = np.cumsum(volumes) - volumes  # volume before each pair
        stops.append(_first(covered / total_volume >= policy.target_coverage))
    if policy.max_dram_bytes is not None:
        stops.append(
            _first(
                np.arange(1, n + 1) * APPROX_DRAM_BYTES_PER_PAIR
                > policy.max_dram_bytes
            )
        )
    taken = order[: min(stops)]
    rows = rows[taken]
    result_keys = log.result_keys[rows]
    record_bytes = record_bytes_column(log, result_keys)
    if policy.max_flash_bytes is not None:
        admitted = _flash_stop(
            log, result_keys, record_bytes, policy.max_flash_bytes
        )
        taken, rows = taken[:admitted], rows[:admitted]
        result_keys = result_keys[:admitted]
        record_bytes = record_bytes[:admitted]
    columns = PairColumns(
        query_keys=log.query_keys[rows],
        result_keys=result_keys,
        volumes=counts[taken],
        query_totals=query_totals[taken],
        navigational=log.navigational[rows],
        record_bytes=record_bytes,
        names=log.names(),
    )
    return CacheContent.from_columns(columns, total_volume)


def _flash_stop(
    names: LogNames,
    result_keys: np.ndarray,
    record_bytes: np.ndarray,
    max_flash_bytes: int,
) -> int:
    """How many leading pairs fit the flash budget.  A URL's record is
    charged once, by the first pair that takes its text: pairs share a
    result when a topic's shared site is another topic's navigational
    site."""
    flash_bytes = 0
    seen_urls = set()
    for i, (rkey, nbytes) in enumerate(
        zip(result_keys.tolist(), record_bytes.tolist())
    ):
        url = names.result_url(rkey)
        if url not in seen_urls:
            if flash_bytes + nbytes > max_flash_bytes:
                return i
            flash_bytes += nbytes
            seen_urls.add(url)
    return len(result_keys)


def _first(mask: np.ndarray) -> int:
    """Position of the first true element of ``mask``, else its length."""
    at = int(np.argmax(mask))
    return at if mask[at] else len(mask)


def result_record_bytes(log: LogNames, result_key: int) -> int:
    """Stored size of a result: community results carry their mined
    record size, personal ones :data:`DEFAULT_RECORD_BYTES`."""
    community = log.community
    if result_key < community.n_results:
        return int(community.result_record_bytes[result_key])
    return DEFAULT_RECORD_BYTES


def record_bytes_column(log: LogNames, result_keys: np.ndarray) -> np.ndarray:
    """:func:`result_record_bytes` of each key, as an int64 array."""
    community = log.community
    out = np.full(len(result_keys), DEFAULT_RECORD_BYTES, dtype=np.int64)
    known = result_keys < community.n_results
    out[known] = community.result_record_bytes[result_keys[known]]
    return out


def build_cache_content_from_model(
    community,
    policy: ContentPolicy = PAPER_OPERATING_POINT,
    total_volume: int = 10_000_000,
) -> CacheContent:
    """Selection walk over the *ideal* community distribution.

    The server aggregates many months of logs, so its triplet table
    approaches the underlying popularity model; design-space studies
    (e.g. the Figure 11 hash-table sweep) use this long-horizon view
    rather than a single sampled month.

    Args:
        community: a :class:`repro.logs.popularity.CommunityModel`.
        policy: stopping rule (same semantics as :func:`build_cache_content`).
        total_volume: nominal volume to apportion into triplet counts.
    """
    order = community.rank_order
    probs = community.pair_prob
    query_totals: Dict[int, float] = {}
    for pair in order:
        q = int(community.pair_query[pair])
        query_totals[q] = query_totals.get(q, 0.0) + float(probs[pair])

    entries: List[CacheEntry] = []
    covered = 0.0
    flash_bytes = 0
    seen_urls: Dict[str, bool] = {}
    for pair in order:
        pair = int(pair)
        normalized = float(probs[pair])
        if (
            policy.saturation_volume is not None
            and normalized < policy.saturation_volume
        ):
            break
        if policy.max_pairs is not None and len(entries) >= policy.max_pairs:
            break
        if (
            policy.target_coverage is not None
            and covered >= policy.target_coverage
        ):
            break
        q = int(community.pair_query[pair])
        r = int(community.pair_result[pair])
        url = community.result_urls[r]
        record_bytes = int(community.result_record_bytes[r])
        added_flash = 0 if url in seen_urls else record_bytes
        if (
            policy.max_flash_bytes is not None
            and flash_bytes + added_flash > policy.max_flash_bytes
        ):
            break
        if (
            policy.max_dram_bytes is not None
            and (len(entries) + 1) * APPROX_DRAM_BYTES_PER_PAIR
            > policy.max_dram_bytes
        ):
            break
        entries.append(
            CacheEntry(
                query=community.query_strings[q],
                url=url,
                volume=int(round(normalized * total_volume)),
                score=min(normalized / query_totals[q], 1.0),
                navigational=bool(community.query_navigational[q]),
                record_bytes=record_bytes,
            )
        )
        covered += normalized
        flash_bytes += added_flash
        seen_urls[url] = True
    return CacheContent(entries=entries, total_log_volume=total_volume)


def coverage_curve(
    log: SearchLog, pair_counts: List[int]
) -> List[Tuple[int, float]]:
    """Figure 7: cumulative volume coverage at each cache size."""
    if log.n_events == 0:
        return [(k, 0.0) for k in pair_counts]
    _, volumes, _ = _pair_stats(log)
    cum = np.cumsum(volumes) / volumes.sum()
    out = []
    for k in pair_counts:
        if k <= 0:
            out.append((k, 0.0))
        else:
            out.append((k, float(cum[min(k, len(cum)) - 1])))
    return out
