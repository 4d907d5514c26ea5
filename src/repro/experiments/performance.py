"""Section 6.1 experiments: Figures 15a/15b/16 and Tables 4 and 5.

These fix a PocketSearch cache at the paper's operating point and measure
the service path against the three radios, matching the methodology of
Section 6.1: 100 cached queries, each served repeatedly, radios cold per
query.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.experiments.common import default_content
from repro.pocketsearch.cache import PocketSearchCache
from repro.pocketsearch.database import ResultDatabase
from repro.pocketsearch.engine import PocketSearchEngine
from repro.radio.models import EDGE, THREE_G, WIFI_80211G, RadioProfile
from repro.radio.states import RadioLink, RadioState
from repro.storage.filesystem import FlashFilesystem
from repro.storage.flash import NandFlash

RADIOS = (THREE_G, EDGE, WIFI_80211G)


def _engine(seed: int = 23) -> PocketSearchEngine:
    content = default_content(seed=seed)
    cache = PocketSearchCache.from_content(
        content, database=ResultDatabase(FlashFilesystem(NandFlash()))
    )
    return PocketSearchEngine(cache)


def _cached_queries(engine: PocketSearchEngine, n: int = 100) -> List[str]:
    queries = engine.cache.hashtable.queries()
    step = max(1, len(queries) // n)
    return queries[::step][:n]


def figure15(seed: int = 23, n_queries: int = 100) -> Dict[str, dict]:
    """Figures 15(a) and 15(b): mean per-query latency and energy.

    PocketSearch serves the queries from its cache; each radio serves the
    same queries cold (wake + transfer + render), as in the paper's
    isolated per-query measurements.
    """
    engine = _engine(seed=seed)
    queries = _cached_queries(engine, n_queries)
    measured = [engine.measure_hit(query).outcome for query in queries]
    ps_lat = [m.latency_s for m in measured]
    ps_en = [m.energy_j for m in measured]
    out = {
        "pocketsearch": {
            "mean_latency_s": float(np.mean(ps_lat)),
            "mean_energy_j": float(np.mean(ps_en)),
        }
    }
    for radio in RADIOS:
        latency, energy = engine.radio_only_cost(radio)
        out[radio.name] = {
            "mean_latency_s": latency,
            "mean_energy_j": energy,
            "latency_speedup": latency / out["pocketsearch"]["mean_latency_s"],
            "energy_ratio": energy / out["pocketsearch"]["mean_energy_j"],
        }
    return out


def table4(seed: int = 23, n_queries: int = 100) -> Dict[str, dict]:
    """Table 4: PocketSearch user response time breakdown on a hit."""
    engine = _engine(seed=seed)
    queries = _cached_queries(engine, n_queries)
    sums: Dict[str, float] = {}
    total = 0.0
    for query in queries:
        result = engine.measure_hit(query)
        for part, value in result.breakdown.items():
            sums[part] = sums.get(part, 0.0) + value
        total += result.outcome.latency_s
    rows = {}
    for part, value in sums.items():
        rows[part] = {
            "mean_s": value / len(queries),
            "share": value / total,
        }
    rows["total"] = {"mean_s": total / len(queries), "share": 1.0}
    return rows


def table5(
    seed: int = 23,
    page_load_s: Dict[str, float] = None,
) -> Dict[str, dict]:
    """Table 5: navigation time (search + page download) comparison."""
    if page_load_s is None:
        page_load_s = {"lightweight": 15.0, "heavyweight": 30.0}
    engine = _engine(seed=seed)
    queries = _cached_queries(engine, 20)
    ps = [engine.measure_hit(query).outcome.latency_s for query in queries]
    ps_search = float(np.mean(ps))
    radio_search, _ = engine.radio_only_cost(THREE_G)
    out = {}
    for page, load_s in page_load_s.items():
        ps_total = ps_search + load_s
        radio_total = radio_search + load_s
        out[page] = {
            "pocketsearch_s": ps_total,
            "threeg_s": radio_total,
            "speedup_pct": (radio_total - ps_total) / radio_total * 100,
        }
    return out


def figure16(
    seed: int = 23,
    n_queries: int = 10,
    think_time_s: float = 0.0,
    radio: Optional[RadioProfile] = None,
) -> Dict[str, dict]:
    """Figure 16: time and power of 10 consecutive queries.

    PocketSearch serves them back-to-back at base device power; the radio
    path wakes once, stays active across the burst (tail keeps it awake),
    and takes an order of magnitude longer at ~1.5 kW-milliwatt power.
    Returns the full power timeline for the radio run.
    """
    radio = radio or THREE_G
    engine = _engine(seed=seed)
    queries = _cached_queries(engine, n_queries)

    ps_total_s = 0.0
    ps_energy_j = 0.0
    for query in queries:
        result = engine.measure_hit(query)
        ps_total_s += result.outcome.latency_s + think_time_s
        ps_energy_j += result.outcome.energy_j

    link = RadioLink(radio)
    now = 0.0
    for _ in queries:
        request = link.request(
            now,
            engine.query_bytes_up,
            engine.serp_bytes_down,
            engine.server_time_s,
        )
        render_s = engine.browser.model.render_seconds(24 * 1024)
        now = request.t_end + render_s + think_time_s
    segments = link.drain(now)
    radio_energy = sum(s.energy_j for s in segments) + now * engine.base_power_w
    active = [
        s
        for s in segments
        if s.state in (RadioState.ACTIVE, RadioState.RAMP, RadioState.TAIL)
    ]
    mean_active_power = (
        sum(s.energy_j for s in active) / sum(s.duration_s for s in active)
        if active
        else 0.0
    )
    return {
        "pocketsearch": {
            "total_s": ps_total_s,
            "energy_j": ps_energy_j,
            "mean_power_w": ps_energy_j / ps_total_s if ps_total_s else 0.0,
        },
        "radio": {
            "name": radio.name,
            "total_s": now,
            "energy_j": radio_energy,
            "mean_power_w": radio_energy / now if now else 0.0,
            "mean_active_power_w": mean_active_power + engine.base_power_w,
            "wakeups": link.total_wakeups,
            "segments": segments,
        },
    }
