"""Vectorized replay engine: batch-evaluated cache service, bit-identical
to the scalar :class:`~repro.pocketsearch.engine.PocketSearchEngine` path.

The scalar harness serves one event at a time: each
``engine.serve_query`` call performs multiple MD5-based ``hash64``
lookups, builds dataclasses, and walks the hash-table/ranker/database
object graph.  All of that work is *deterministic arithmetic* over the
event stream — the cost model is pure page math, the miss cost is a
constant, and hit/miss classification is a membership function.  So a
user's whole stream is served in one pass over flat slot lists and dicts
keyed by the log's integer keys, and every hit's cost is priced in one
numpy evaluation after the pass.

Bit-identity, not approximation:

* every float is accumulated in exactly the scalar engine's association
  order (IEEE-754 addition is commutative but not associative, so the
  expressions here mirror the scalar code's left-to-right grouping);
* flash read costs are replicated from the page arithmetic of
  :class:`~repro.storage.filesystem.FlashFilesystem` /
  :class:`~repro.pocketsearch.database.ResultDatabase`: a hit records
  where its two results are stored and how many entries their files
  hold before the event's click, which is all a fetch's cost reads;
* ranking-score evolution (Equations 1-2) is replayed event by event
  with the same ``math.exp`` decay and stable top-2 sort;
* outcomes are fed to the same :class:`MetricsCollector` in stream
  order, so the two paths' outcome lists are equal element by element;
  a user's outcome objects are built only when the collector's
  ``outcomes`` are first read.

Every user's cache is a copy-on-write overlay over a shared, read-only
base: only the queries the user's clicks touch are copied.  Without
daily updates the base is the initial community content.  With them
(Section 6.2.2) every user gets the same mined content each night, so
each day's content is merged once per universe into a :class:`_DayPlan`:
its slots as a cache with no retained pairs holds them, its results and
its diff from the day before.  A mined content's key columns are its
ids; a content built from entries maps their text.
:func:`prepare_replay` builds the universe, the event batch and the
plans before a replay's first user.  Before the first event of each day,
a refresh keeps the overlay's accessed pairs at or above the retention
score, merges the day's slots into those queries only, swaps the plan in
as the base and applies its diff to the user's result database.  It
costs the user's touched queries plus the day's churn, not the cache's
size, and leaves the table and the database in the state
:meth:`CacheUpdateServer.refresh_with_content` leaves a real cache in,
compactions included.  It computes none of the server's transfer
accounting: the replay reads only the state.
"""

from __future__ import annotations

import math
from functools import partial
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.logs.generator import SearchLog
from repro.pocketsearch.cache import PocketSearchCache
from repro.pocketsearch.content import (
    CacheContent,
    ContentPolicy,
    record_bytes_column,
)
from repro.pocketsearch.database import (
    DIRECTORY_SCAN_S_PER_FILE,
    HEADER_ENTRY_BYTES,
    HEADER_PARSE_S_PER_ENTRY,
)
from repro.pocketsearch.engine import (
    MISC_LATENCY_S,
    _SOURCE_BY_RADIO,
    PocketSearchEngine,
)
from repro.pocketsearch.hashtable import hash64
from repro.pocketsearch.manager import CacheUpdateServer
from repro.radio.energy import (
    isolated_request_components,
    isolated_request_latency,
)
from repro.sim.browser import SERP_BYTES
from repro.sim.metrics import MetricsCollector, QueryOutcome, ServiceSource

__all__ = [
    "EngineCostModel",
    "replay_user_vectorized",
]

DAY_SECONDS = 24 * 3600


class EngineCostModel:
    """Constants of the default serving stack, pulled from the real models.

    Reading them from a default :class:`PocketSearchEngine` and the
    objects it owns keeps the vectorized engine in lockstep with any
    future change to the model defaults (rather than hard-coding today's
    numbers).
    """

    def __init__(self) -> None:
        engine = PocketSearchEngine(PocketSearchCache())
        table = engine.cache.hashtable
        database = engine.cache.database
        fs = database.filesystem
        flash = fs.flash
        browser = engine.browser
        server = CacheUpdateServer()

        self.lookup_s = table.lookup_latency_s
        self.render_s = browser.model.render_seconds(SERP_BYTES)
        self.render_energy_j = browser.render_energy_j(self.render_s)
        self.base_power_w = engine.base_power_w
        self.misc_s = MISC_LATENCY_S

        request = (
            engine.radio,
            engine.query_bytes_up,
            engine.serp_bytes_down,
            engine.server_time_s,
        )
        radio_latency = isolated_request_latency(*request)
        parts = isolated_request_components(*request)
        radio_energy = (parts.ramp_j + parts.transfer_j) + parts.tail_j
        self.miss_latency_s = (
            self.lookup_s + radio_latency
        ) + self.render_s
        self.miss_energy_j = (
            self.miss_latency_s * self.base_power_w + radio_energy
        ) + self.render_energy_j
        self.miss_source = _SOURCE_BY_RADIO[engine.radio.name]

        # Flash / database read-cost components.
        self.n_files = database.n_files
        self.page_bytes = flash.geometry.page_bytes
        self.read_page_s = flash.read_page_s
        self.read_bw_bps = flash.read_bandwidth_bps
        self.read_page_energy_j = flash.read_page_energy_j
        self.energy_per_byte_j = flash.energy_per_byte_j
        self.open_s = fs.open_overhead_s
        self.open_j = fs.open_energy_j
        self.dir_scan_s = DIRECTORY_SCAN_S_PER_FILE * self.n_files
        self.header_entry_bytes = HEADER_ENTRY_BYTES
        self.header_parse_s = HEADER_PARSE_S_PER_ENTRY

        # Personalization decay factor (Equation 2), evaluated once: the
        # scalar ranker calls math.exp per click, which is deterministic.
        self.decay = math.exp(-engine.cache.ranker.decay_lambda)

        # Update-protocol constants (Section 5.4).
        self.retention_min_score = server.retention_min_score
        self.compaction_threshold = server.compaction_threshold

    def fetch_cost_arrays(
        self, entries: np.ndarray, offsets: np.ndarray, nbytes: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(latency, energy) of database fetches, over int64 arrays of
        file entries, record offsets and record sizes.

        Mirrors :meth:`ResultDatabase.fetch` exactly, including the
        skipped header read on an empty file.  Every intermediate keeps
        the scalar association order; adding a 0.0 header term for empty
        files is exact (x + 0.0 == x for the finite non-negative costs
        involved), so results are bitwise equal to the scalar path.
        """
        page = self.page_bytes
        header_bytes = entries * self.header_entry_bytes
        h_pages = np.where(entries > 0, (header_bytes - 1) // page + 1, 0)
        h_moved = h_pages * page
        h_lat = (
            h_pages * self.read_page_s + h_moved / self.read_bw_bps
        ) + self.open_s
        h_en = (
            h_pages * self.read_page_energy_j
            + h_moved * self.energy_per_byte_j
        ) + self.open_j
        empty = entries == 0
        h_lat = np.where(empty, 0.0, h_lat)
        h_en = np.where(empty, 0.0, h_en)

        first = offsets // page
        last = (offsets + nbytes - 1) // page
        r_pages = last - first + 1
        r_moved = r_pages * page
        r_lat = (
            r_pages * self.read_page_s + r_moved / self.read_bw_bps
        ) + self.open_s
        r_en = (
            r_pages * self.read_page_energy_j
            + r_moved * self.energy_per_byte_j
        ) + self.open_j

        latency = (
            (self.dir_scan_s + h_lat) + entries * self.header_parse_s
        ) + r_lat
        energy = h_en + r_en
        return latency, energy

    def hit_cost_arrays(
        self, fetch_lat: np.ndarray, fetch_en: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Hit latency/energy from summed fetch costs (scalar grouping)."""
        latency = (
            (self.lookup_s + fetch_lat) + self.render_s
        ) + self.misc_s
        energy = (
            latency * self.base_power_w + fetch_en
        ) + self.render_energy_j
        return latency, energy


_COST_MODEL: Optional[EngineCostModel] = None


def _cost_model() -> EngineCostModel:
    global _COST_MODEL
    if _COST_MODEL is None:
        _COST_MODEL = EngineCostModel()
    return _COST_MODEL


class ReplayUniverse:
    """Per-(log, content, mode) immutable mirror of the initial cache.

    A query's id is its key in the log, and so is a result's: every
    query string and result URL of a generated log is distinct, so keys
    and hash-table entries are one to one.  The universe mirrors the
    community bulk-load: the initial hash-table slots (:attr:`initial`)
    and the result-database layout.  Shared read-only across all users
    of a replay, as are the daily-update plans (:meth:`day_plans`).
    """

    def __init__(
        self, log: SearchLog, content: Optional[CacheContent], mode: str
    ) -> None:
        self.costs = _cost_model()
        self.log = log
        # Text -> id maps, built when a content made from entries is
        # first mapped.
        self._qid_of_str: Optional[Dict[str, int]] = None
        self._rid_of_url: Optional[Dict[str, int]] = None
        self._file_of: Dict[int, int] = {}
        self._qstr: Dict[int, str] = {}
        self._day_plans: Optional[
            Tuple[List[CacheContent], List[_DayPlan]]
        ] = None
        from repro.sim.replay import CacheMode

        if mode == CacheMode.PERSONALIZATION_ONLY:
            content = None  # scalar make_cache never loads community here
        # Mirror of the community bulk-load (make_cache + load_community):
        # the merged slots, and each result stored once in first-seen order.
        self.initial = _DayPlan(
            self.map_content(content) if content is not None else [], None
        )
        self.db0: Dict[int, Tuple[int, int, int]] = {}
        self.file_sizes0 = [0] * self.costs.n_files
        self.file_entries0 = [0] * self.costs.n_files
        for rid, record_bytes in self.initial.results.items():
            file_index = self.file_of(rid)
            self.db0[rid] = (
                file_index, self.file_sizes0[file_index], record_bytes
            )
            self.file_sizes0[file_index] += (
                record_bytes + self.costs.header_entry_bytes
            )
            self.file_entries0[file_index] += 1

    # -- construction helpers ------------------------------------------------

    def day_plans(self, contents: List[CacheContent]) -> List["_DayPlan"]:
        """One :class:`_DayPlan` per daily content, each diffed against
        the day before (day 0 against :attr:`initial`).

        Built on the first call and kept for the most recent content
        list: a daily-update replay hands every user the same list.
        """
        cached = self._day_plans
        if (
            cached is not None
            and len(cached[0]) == len(contents)
            and all(a is b for a, b in zip(cached[0], contents))
        ):
            return cached[1]
        plans: List[_DayPlan] = []
        prev = self.initial
        for content in contents:
            prev = _DayPlan(self.map_content(content), prev)
            plans.append(prev)
        self._day_plans = (list(contents), plans)
        return plans

    def map_content(self, content: CacheContent) -> List[Tuple]:
        """Content pairs as (qid, rid, score, record_bytes) tuples.

        A content mined from this log's name tables holds its pairs' ids
        as key columns; any other maps its entries' text to the log's
        keys.
        """
        columns = content.columns
        if columns is not None and columns.names.shares_names(self.log):
            return list(zip(
                columns.query_keys.tolist(),
                columns.result_keys.tolist(),
                (columns.volumes / columns.query_totals).tolist(),
                columns.record_bytes.tolist(),
            ))
        entries = content.entries
        if entries and self._qid_of_str is None:
            self._map_text()
        pairs = []
        for entry in entries:
            qid = self._qid_of_str.get(entry.query)
            rid = self._rid_of_url.get(entry.url)
            if qid is None or rid is None:
                raise ValueError(
                    "cache content refers to strings outside this log's "
                    "universe; vectorized replay requires content mined "
                    "from the replayed log"
                )
            pairs.append((qid, rid, entry.score, entry.record_bytes))
        return pairs

    def _map_text(self) -> None:
        """Map every query string and result URL of the log, community
        and personal, to its key."""
        community = self.log.community
        n_queries, n_results = community.n_queries, community.n_results
        qid_of_str = dict(zip(community.query_strings, range(n_queries)))
        rid_of_url = dict(zip(community.result_urls, range(n_results)))
        for qkey, (text, url) in self.log._unique_names.items():
            qid_of_str[text] = qkey
            rid_of_url[url] = n_results + (qkey - n_queries)
        self._qid_of_str, self._rid_of_url = qid_of_str, rid_of_url

    # -- key-space helpers ----------------------------------------------------

    def file_of(self, rid: int) -> int:
        """Database file index of a result: hash64(url) % n_files."""
        cached = self._file_of.get(rid)
        if cached is None:
            cached = hash64(self.log.result_url(rid)) % self.costs.n_files
            self._file_of[rid] = cached
        return cached

    def qstr(self, qkey: int) -> str:
        cached = self._qstr.get(qkey)
        if cached is None:
            cached = self.log.query_string(qkey)
            self._qstr[qkey] = cached
        return cached


def _insert_slot(
    slots: List[List], rid: int, score: float, accessed: bool
) -> None:
    """Mirror of :meth:`QueryHashTable.insert` on a flat slot list."""
    for slot in slots:
        if slot[0] == rid:
            slot[1] = max(slot[1], score)
            slot[2] = slot[2] or accessed
            return
    slots.append([rid, score, accessed])


class _DayPlan:
    """One cache content merged once, shared read-only by every user.

    ``slots`` holds each query's pairs as a cache with no retained pairs
    holds them after loading the content: insertion order, the highest
    score of a repeated pair, access flags clear.  ``results`` maps each
    result to its first entry's record size, in first-seen order.

    The rest is the diff from ``prev``, the plan a refresh replaces:
    ``new_results`` (first-seen order, with record sizes) and
    ``gone_results``.  A query whose merged pairs equal ``prev``'s
    reuses ``prev``'s list, so consecutive plans share most of their
    slot lists.
    """

    __slots__ = ("slots", "results", "new_results", "gone_results")

    def __init__(
        self, entries: List[Tuple], prev: Optional["_DayPlan"]
    ) -> None:
        slots: Dict[int, List[List]] = {}
        results: Dict[int, int] = {}
        for qid, rid, score, record_bytes in entries:
            results.setdefault(rid, record_bytes)
            _insert_slot(slots.setdefault(qid, []), rid, score, False)
        prev_slots = prev.slots if prev is not None else {}
        prev_results = prev.results if prev is not None else {}
        for qid, merged in slots.items():
            if prev_slots.get(qid) == merged:
                slots[qid] = prev_slots[qid]
        self.slots = slots
        self.results = results
        self.new_results = [
            (rid, record_bytes) for rid, record_bytes in results.items()
            if rid not in prev_results
        ]
        self.gone_results = [
            rid for rid in prev_results if rid not in results
        ]


class _UserCacheState:
    """Mutable per-user cache: a copy-on-write overlay over a day plan.

    ``base`` is the plan the user's cache last loaded (the universe's
    initial content until the first daily refresh); ``slots`` holds only
    the queries the user's clicks touched or a refresh retained.  A
    static user shares the universe's database layout and stores only
    its own additions; a daily user owns a copy, because refreshes drop
    results from it.
    """

    __slots__ = (
        "universe", "base", "slots", "db", "base_db",
        "file_sizes", "file_entries", "garbage",
    )

    def __init__(self, universe: ReplayUniverse, daily: bool) -> None:
        self.universe = universe
        self.base = universe.initial
        self.slots: Dict[int, List[List]] = {}
        if daily:
            self.db = dict(universe.db0)
            self.base_db: Dict[int, Tuple[int, int, int]] = {}
        else:
            self.db = {}
            self.base_db = universe.db0
        self.file_sizes = list(universe.file_sizes0)
        self.file_entries = list(universe.file_entries0)
        self.garbage = 0

    def add_result(self, rid: int, record_bytes: int) -> None:
        file_index = self.universe.file_of(rid)
        self.db[rid] = (file_index, self.file_sizes[file_index], record_bytes)
        self.file_sizes[file_index] += (
            record_bytes + self.universe.costs.header_entry_bytes
        )
        self.file_entries[file_index] += 1

    def drop_result(self, rid: int) -> None:
        """Mirror of :meth:`ResultDatabase.remove_result`."""
        file_index, _offset, record_bytes = self.db.pop(rid)
        self.file_entries[file_index] -= 1
        self.garbage += record_bytes + self.universe.costs.header_entry_bytes


# -- daily refresh ----------------------------------------------------------


def _refresh_state(state: _UserCacheState, day: _DayPlan) -> None:
    """:meth:`CacheUpdateServer.refresh_with_content` with ``day``'s
    content, applied to a daily user's overlay.

    ``day`` must follow the plan the state holds.  Every pair outside
    the overlay comes from that plan with its access flag clear, so step
    2 drops it and only overlay pairs can be retained.  Step 3 then
    leaves ``day``'s merged slots on every query without a retained
    pair, so ``day`` becomes the base and only the retained queries are
    merged by hand.  The database held exactly the results the table
    referenced, so it gains ``day``'s new results it lacks and loses the
    results no retained pair or ``day`` references: ``day``'s gone
    results and the overlay's own.
    """
    costs = state.universe.costs

    # Step 2: prune never-accessed and decayed pairs, noting the results
    # the kept pairs reference and those the pruned ones did.
    retained: Dict[int, List[List]] = {}
    retained_results = set()
    pruned_results = []
    min_score = costs.retention_min_score
    for qid, slots in state.slots.items():
        kept = None
        for slot in slots:
            if slot[2] and slot[1] >= min_score:
                if kept is None:
                    kept = retained[qid] = [slot]
                else:
                    kept.append(slot)
                retained_results.add(slot[0])
            else:
                pruned_results.append(slot[0])

    # Step 3: merge the fresh popular set (max score wins).
    for rid, record_bytes in day.new_results:
        if rid not in state.db:
            state.add_result(rid, record_bytes)
    day_slots = day.slots
    for qid, kept in retained.items():
        for rid, score, _accessed in day_slots.get(qid, ()):
            for slot in kept:
                if slot[0] == rid:
                    slot[1] = max(slot[1], score)
                    break
            else:
                kept.append([rid, score, False])

    # Step 4: garbage-collect the database, then compact.
    for rid in day.gone_results:
        if rid not in retained_results:
            state.drop_result(rid)
    day_results = day.results
    for rid in pruned_results:
        if (
            rid not in retained_results
            and rid not in day_results
            and rid in state.db
        ):
            state.drop_result(rid)
    state.slots = retained
    state.base = day
    if state.garbage > costs.compaction_threshold * max(
        sum(state.file_sizes), 1
    ):
        _compact_state(state)


def _compact_state(state: _UserCacheState) -> None:
    """Mirror of :meth:`ResultDatabase.compact` on the state: every live
    result is laid out again in insertion order and the garbage is
    cleared."""
    costs = state.universe.costs
    state.garbage = 0
    old = list(state.db.items())  # preserves _index insertion order
    state.file_sizes = [0] * costs.n_files
    state.file_entries = [0] * costs.n_files
    state.db = {}
    for rid, (_file, _offset, record_bytes) in old:
        state.add_result(rid, record_bytes)


# -- user-level entry points -------------------------------------------------


def _replay_user_arrays(
    universe: ReplayUniverse,
    events: np.ndarray,
    mode: str,
    daily_contents: Optional[List[CacheContent]],
    t_start: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(hit, latency, energy) arrays of one user's replay.

    One pass serves the events in stream order, as the scalar engine
    does.  Before each event, every refresh up to the event's day runs,
    skipped days included.  A hit takes the query's two best slots, the
    way the scalar ranker's stable sort orders them, and notes where
    each result is stored and how many entries its file holds before the
    event's click.  The click then rescores the slots (Equations 1-2) and
    stores a result the database lacks.  After the pass, every hit is
    priced in one array evaluation.
    """
    from repro.sim.replay import CacheMode

    n = len(events)
    if n == 0:
        empty = np.zeros(0)
        return empty.astype(bool), empty, empty
    costs = universe.costs
    personalized = mode != CacheMode.COMMUNITY_ONLY
    qids = events["query_key"].tolist()
    if personalized:
        rkeys = events["result_key"]
        rids = rkeys.tolist()
        record_bytes = record_bytes_column(universe.log, rkeys).tolist()
    state = _UserCacheState(universe, daily=bool(daily_contents))
    plans = universe.day_plans(daily_contents) if daily_contents else []
    if plans:
        days = np.minimum(
            ((events["timestamp"] - t_start) // DAY_SECONDS).astype(np.int64),
            len(plans) - 1,
        ).tolist()
    else:
        days = [-1] * n  # no refreshes

    decay = costs.decay
    day = 0
    overlay, base_slots = state.slots, state.base.slots
    db, base_db, file_entries = state.db, state.base_db, state.file_entries
    # One row per hit: (event, then entries, offset and bytes of the
    # first result, a second-result flag and the second's three).
    rows: List[Tuple[int, ...]] = []
    for i, (qid, event_day) in enumerate(zip(qids, days)):
        if event_day >= day:
            while day <= event_day:
                _refresh_state(state, plans[day])
                day += 1
            overlay, base_slots = state.slots, state.base.slots
            db, file_entries = state.db, state.file_entries
        slots = overlay.get(qid)
        if slots is None:
            slots = base_slots.get(qid)
            if personalized:
                slots = [list(slot) for slot in slots] if slots else []
                overlay[qid] = slots
        if slots:
            if len(slots) == 1:
                first, second = slots[0][0], None
            elif len(slots) == 2:
                a, b = slots
                first, second = (b[0], a[0]) if b[1] > a[1] else (a[0], b[0])
            else:
                ranked = sorted(slots, key=itemgetter(1), reverse=True)
                first, second = ranked[0][0], ranked[1][0]
            file1, offset1, bytes1 = db.get(first) or base_db[first]
            if second is None:
                rows.append(
                    (i, file_entries[file1], offset1, bytes1, 0, 0, 0, 0)
                )
            else:
                file2, offset2, bytes2 = db.get(second) or base_db[second]
                rows.append((
                    i, file_entries[file1], offset1, bytes1,
                    1, file_entries[file2], offset2, bytes2,
                ))
        if not personalized:
            continue
        clicked = rids[i]
        clicked_slot = None
        for slot in slots:
            if slot[0] == clicked:
                clicked_slot = slot
            else:
                slot[1] = slot[1] * decay
        if clicked_slot is not None:
            clicked_slot[1] = clicked_slot[1] + 1.0
            clicked_slot[2] = True
        else:
            slots.append([clicked, 1.0, True])
        if clicked not in db and clicked not in base_db:
            state.add_result(clicked, record_bytes[i])

    hit = np.zeros(n, dtype=bool)
    latency = np.full(n, costs.miss_latency_s)
    energy = np.full(n, costs.miss_energy_j)
    if rows:
        row, e1, o1, b1, has2, e2, o2, b2 = np.array(rows, dtype=np.int64).T
        lat1, en1 = costs.fetch_cost_arrays(e1, o1, b1)
        lat2, en2 = costs.fetch_cost_arrays(e2, o2, b2)
        has2 = has2.astype(bool)
        hit_lat, hit_en = costs.hit_cost_arrays(
            lat1 + np.where(has2, lat2, 0.0), en1 + np.where(has2, en2, 0.0)
        )
        hit[row] = True
        latency[row] = hit_lat
        energy[row] = hit_en
    return hit, latency, energy


def _emit_outcomes(
    universe: ReplayUniverse,
    events: np.ndarray,
    hit: np.ndarray,
    latency: np.ndarray,
    energy: np.ndarray,
) -> List[QueryOutcome]:
    """Materialize per-event outcomes in stream order.

    Outcomes are built by populating each instance's ``__dict__``
    directly: the frozen-dataclass ``__init__`` routes every field
    through ``object.__setattr__``, which profiles as the single largest
    per-event cost in the batch path.  Field values and equality
    semantics are unchanged (dataclass ``__eq__`` compares fields).
    """
    cache_source = ServiceSource.CACHE
    miss_source = universe.costs.miss_source
    qstr = universe.qstr
    new = object.__new__
    out = []
    append = out.append
    for qkey, h, lat, en, ts, nav in zip(
        events["query_key"].tolist(),
        hit.tolist(),
        latency.tolist(),
        energy.tolist(),
        events["timestamp"].tolist(),
        events["navigational"].tolist(),
    ):
        outcome = new(QueryOutcome)
        outcome.__dict__.update(
            query=qstr(qkey),
            hit=h,
            source=cache_source if h else miss_source,
            latency_s=lat,
            energy_j=en,
            timestamp=ts,
            navigational=nav,
        )
        append(outcome)
    return out


# Process-level caches: a replay serves many users against the same log
# and content, and the two halves of ``daily_updates`` share both, so the
# immutable mirrors are built once per process.  An entry keeps the
# objects whose id() its key holds, so a key can never alias a collected
# object.
_UNIVERSE_CACHE: Dict[tuple, tuple] = {}
_BATCH_CACHE: Dict[tuple, tuple] = {}
_CONTENT_CACHE: Dict[tuple, tuple] = {}
_CACHE_LIMIT = 8


def _memoized(cache: Dict[tuple, tuple], owners: tuple, params: tuple, build):
    """``build()``, cached under the ids of ``owners`` and ``params``."""
    key = tuple(map(id, owners)) + params
    found = cache.get(key)
    if found is not None and all(a is b for a, b in zip(found[0], owners)):
        return found[1]
    if len(cache) >= _CACHE_LIMIT:
        cache.clear()
    value = build()
    cache[key] = (owners, value)
    return value


def _universe_for(
    log: SearchLog, content: Optional[CacheContent], mode: str
) -> ReplayUniverse:
    return _memoized(
        _UNIVERSE_CACHE, (log, content), (mode,),
        lambda: ReplayUniverse(log, content, mode),
    )


def _batch_for(log: SearchLog, t_start: float, t_end: float):
    from repro.logs.columnar import ColumnarEventBatch

    return _memoized(
        _BATCH_CACHE, (log,), (t_start, t_end),
        lambda: ColumnarEventBatch.from_log(log, t_start=t_start, t_end=t_end),
    )


def month_content(
    log: SearchLog,
    month: int,
    policy: ContentPolicy,
    build: Callable[[SearchLog, ContentPolicy], CacheContent],
) -> CacheContent:
    """``build(log.month(month), policy)``, mined once per (log, month,
    policy): a static and a daily-update replay of one log share the
    content, and with it their universe."""
    return _memoized(
        _CONTENT_CACHE, (log,), (month, policy),
        lambda: build(log.month(month), policy),
    )


def prepare_replay(
    log: SearchLog,
    content: Optional[CacheContent],
    daily_contents: Optional[List[CacheContent]],
    mode: str,
    t_start: float,
    t_end: float,
) -> None:
    """Build what every user of a batch replay shares: the universe, the
    columnar batch and, with daily contents, the day plans.  Each is
    memoized, so :func:`replay_user_vectorized` finds them built and a
    user's replay costs only its own events."""
    universe = _universe_for(log, content, mode)
    _batch_for(log, t_start, t_end)
    if daily_contents:
        universe.day_plans(daily_contents)


def replay_user_vectorized(
    log: SearchLog,
    content: Optional[CacheContent],
    daily_contents: Optional[List[CacheContent]],
    mode: str,
    user_id: int,
    t_start: float,
    t_end: float,
    metrics: Optional[MetricsCollector] = None,
) -> MetricsCollector:
    """Vectorized replay of one user; returns its metrics.

    Opens no spans: :func:`repro.sim.replay.replay_one_user` serves
    traced runs event by event instead.
    """
    universe = _universe_for(log, content, mode)
    batch = _batch_for(log, t_start, t_end)
    events = batch.for_user(user_id)
    if metrics is None:
        metrics = MetricsCollector()
    hit, latency, energy = _replay_user_arrays(
        universe, events, mode, daily_contents, t_start
    )
    metrics.defer(
        hit, partial(_emit_outcomes, universe, events, hit, latency, energy)
    )
    return metrics


def clear_caches() -> None:
    """Drop the process-level universe, batch and content caches, so the
    next replay starts cold."""
    _UNIVERSE_CACHE.clear()
    _BATCH_CACHE.clear()
    _CONTENT_CACHE.clear()
