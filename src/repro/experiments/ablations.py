"""Ablations of PocketSearch's design decisions (DESIGN.md section 6).

* baseline comparison: PocketSearch vs plain LRU vs browser URL-substring
  matching vs no cache, replayed over the same user streams;
* ranking-decay sweep: how the Equations (1)-(2) lambda affects how often
  the user's clicked result is ranked first;
* update cadence and shared storage are covered by
  :mod:`repro.experiments.hitrate` and :mod:`repro.experiments.cachedesign`.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.baselines.browser_cache import BrowserUrlCache
from repro.baselines.lru import LruQueryCache
from repro.experiments.common import default_content, default_log
from repro.logs.generator import SearchLog
from repro.logs.schema import MONTH_SECONDS
from repro.pocketsearch.cache import PocketSearchCache
from repro.pocketsearch.database import ResultDatabase
from repro.pocketsearch.hashtable import QueryHashTable, chain_entries, hash64
from repro.pocketsearch.ranking import PersonalizedRanker
from repro.sim.replay import (
    CacheMode,
    ReplayConfig,
    run_replay,
    select_replay_users,
)
from repro.storage.filesystem import FlashFilesystem
from repro.storage.flash import NandFlash


def _lru_and_browser_rates(
    log: SearchLog, lru_capacity: int, uid: int, t0: float, t1: float
) -> Tuple[float, float]:
    """(LRU, browser) hit rates of one user's stream."""
    stream = log.for_user(uid).window(t0, t1)
    lru = LruQueryCache(capacity=lru_capacity)
    browser = BrowserUrlCache()
    lru_hits = browser_hits = 0
    for i in range(stream.n_events):
        query = stream.query_string(int(stream.query_keys[i]))
        url = stream.result_url(int(stream.result_keys[i]))
        if lru.lookup(query) is not None:
            lru_hits += 1
        else:
            lru.insert(query, url)
        if browser.lookup(query) is not None:
            browser_hits += 1
        browser.visit(url)
    n = max(stream.n_events, 1)
    return lru_hits / n, browser_hits / n


def baseline_hit_rates(
    users_per_class: int = 30, seed: int = 23
) -> Dict[str, float]:
    """Hit rates of PocketSearch and the baselines on identical streams.

    PocketSearch's rate is the Section 6.2 full-cache replay of the
    selected users.  The LRU cache gets the same entry budget as
    PocketSearch's pair count (a generous setting: it ignores DRAM/flash
    structure).  The browser cache serves only substring-matching
    navigational queries.
    """
    log = default_log(seed=seed)
    content = default_content(seed=seed)
    users = select_replay_users(log, month=1, users_per_class=users_per_class)
    pocketsearch = run_replay(
        log,
        ReplayConfig(users_per_class=users_per_class),
        modes=(CacheMode.FULL,),
        selected_users=users,
    )[CacheMode.FULL].overall_hit_rate()

    t0, t1 = MONTH_SECONDS, 2 * MONTH_SECONDS
    lru_capacity = max(content.n_pairs, 1)
    pairs = [
        _lru_and_browser_rates(log, lru_capacity, uid, t0, t1)
        for uids in users.values()
        for uid in uids
    ]
    lru_rates: List[float] = [p[0] for p in pairs]
    browser_rates: List[float] = [p[1] for p in pairs]

    return {
        "pocketsearch": pocketsearch,
        "lru": float(np.mean(lru_rates)),
        "browser_substring": float(np.mean(browser_rates)),
        "no_cache": 0.0,
    }


def ranking_lambda_sweep(
    lambdas=(0.0, 0.05, 0.1, 0.3, 0.7),
    seed: int = 23,
    users_per_class: int = 10,
) -> Dict[float, float]:
    """How the decay rate affects top-rank accuracy.

    Measures, over full-cache replays, the fraction of hits where the
    result the user clicks is ranked first by the cache at lookup time.
    """
    log = default_log(seed=seed)
    content = default_content(seed=seed)
    users = select_replay_users(log, month=1, users_per_class=users_per_class)
    t0, t1 = MONTH_SECONDS, 2 * MONTH_SECONDS

    out = {}
    for lam in lambdas:
        correct = 0
        total = 0
        for uids in users.values():
            for uid in uids:
                stream = log.for_user(uid).window(t0, t1)
                cache = PocketSearchCache(
                    database=ResultDatabase(FlashFilesystem(NandFlash())),
                    ranker=PersonalizedRanker(decay_lambda=lam),
                )
                cache.load_community(content)
                for i in range(stream.n_events):
                    query = stream.query_string(int(stream.query_keys[i]))
                    url = stream.result_url(int(stream.result_keys[i]))
                    lookup = cache.lookup(query)
                    if lookup.hit and len(lookup.results) > 1:
                        total += 1
                        if lookup.results[0][0] == hash64(url):
                            correct += 1
                    cache.record_click(query, url)
        out[lam] = correct / total if total else float("nan")
    return out


def results_per_entry_hit_cost(seed: int = 23) -> Dict[int, dict]:
    """Entry-width ablation beyond footprint: lookup result completeness.

    For each slot width, loads the cache and reports footprint plus the
    mean number of chained entries walked per lookup (wider entries mean
    fewer chain steps for multi-result queries).
    """
    content = default_content(seed=seed)
    out = {}
    for width in (1, 2, 4):
        table = QueryHashTable(results_per_entry=width)
        for entry in content.entries:
            table.insert(entry.query, hash64(entry.url), entry.score)
        chain_lengths = []
        for query in sorted({e.query for e in content.entries}):
            chain_lengths.append(
                chain_entries(len(table.slots_for(query)), width)
            )
        out[width] = {
            "footprint_bytes": table.footprint_bytes,
            "mean_chain_entries": float(np.mean(chain_lengths)),
        }
    return out
