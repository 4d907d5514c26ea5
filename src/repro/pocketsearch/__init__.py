"""PocketSearch: the paper's showcase pocket cloudlet (Section 5).

A search-and-advertisement cache living on the phone:

* :mod:`content` — extracts <query, result, volume> triplets from search
  logs and selects what to cache (memory or saturation threshold);
* :mod:`hashtable` — the DRAM query hash table (two results per entry,
  chained overflow, access flags);
* :mod:`database` — the 32-file custom search-result database on flash;
* :mod:`ranking` — click-driven personalized ranking (Equations 1-2);
* :mod:`cache` — the community + personalization cache composition;
* :mod:`manager` — the server-side update protocol (patch files);
* :mod:`engine` — the on-device service path with latency/energy costs.
"""

from repro.pocketsearch.content import (
    CacheContent,
    CacheEntry,
    ContentPolicy,
    build_cache_content,
    triplets_from_log,
)
from repro.pocketsearch.hashtable import QueryHashTable, hash64
from repro.pocketsearch.database import ResultDatabase, StoredResult
from repro.pocketsearch.ranking import PersonalizedRanker
from repro.pocketsearch.cache import CacheLookup, PocketSearchCache
from repro.pocketsearch.manager import CacheUpdateServer, UpdatePatch
from repro.pocketsearch.suggest import SuggestIndex, Suggestion
from repro.pocketsearch.engine import PocketSearchEngine, ServeResult

__all__ = [
    "CacheContent",
    "CacheEntry",
    "CacheLookup",
    "CacheUpdateServer",
    "ContentPolicy",
    "PersonalizedRanker",
    "PocketSearchCache",
    "PocketSearchEngine",
    "QueryHashTable",
    "ResultDatabase",
    "ServeResult",
    "SuggestIndex",
    "Suggestion",
    "StoredResult",
    "UpdatePatch",
    "build_cache_content",
    "hash64",
    "triplets_from_log",
]
