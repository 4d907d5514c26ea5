"""The on-device PocketSearch service path (Section 6.1, Table 4).

Serving a query:

* **hit** — hash-table lookup (~10 us in DRAM), fetch the top results
  from the flash database (~10 ms), render the results page in the
  embedded browser (~361 ms), plus miscellaneous glue (~7 ms): ~378 ms
  total, of which rendering is 96.7%.
* **miss** — the same 10 us lookup, then the full radio round trip (wake
  + handshake + transfer + server time) and rendering of the server's
  results page: seconds, not milliseconds.

Each query is costed in isolation (the radio starts asleep), matching the
paper's measurement methodology for Figures 15a/15b; consecutive-query
traces (Figure 16) drive the radio timeline directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.obs.energy import EnergyBreakdown
from repro.obs.trace import get_tracer
from repro.pocketsearch.cache import PocketSearchCache
from repro.pocketsearch.content import DEFAULT_RECORD_BYTES
from repro.radio.energy import (
    isolated_request_components,
    isolated_request_energy,
    isolated_request_latency,
)
from repro.radio.models import RadioProfile, THREE_G
from repro.sim.browser import Browser, RADIO_SERP_BYTES, SERP_BYTES
from repro.sim.metrics import QueryOutcome, ServiceSource

#: Miscellaneous service-path overhead (Table 4: ~7 ms).
MISC_LATENCY_S = 7e-3

#: How many results a hit fetches from flash for the instant results page
#: (the auto-suggest box of Figure 1 shows two).
RESULTS_PER_PAGE = 2

KB = 1024

_SOURCE_BY_RADIO = {
    "3g": ServiceSource.RADIO_3G,
    "edge": ServiceSource.RADIO_EDGE,
    "802.11g": ServiceSource.RADIO_WIFI,
}


@dataclass(frozen=True)
class ServeResult:
    """Full accounting of one served query.

    Attributes:
        outcome: the model outcome (latency, energy, source).
        breakdown: latency components, keyed by stage name.
        energy: per-component energy breakdown of the same query; its
            radio components are what miss batching re-attributes.
    """

    outcome: QueryOutcome
    breakdown: Dict[str, float] = field(default_factory=dict)
    energy: Optional[EnergyBreakdown] = None


class PocketSearchEngine:
    """Serves queries from the cache, falling back to a radio link.

    Args:
        cache: the PocketSearch cache.
        browser: rendering model (defaults to the Table 4 fit).
        radio: fallback radio profile (the paper's default is 3G).
        base_power_w: device base power while the user is served.
        query_bytes_up: uplink payload of a search request.
        serp_bytes_down: downlink payload of the server results page.
        server_time_s: search-engine processing time.
    """

    def __init__(
        self,
        cache: PocketSearchCache,
        browser: Optional[Browser] = None,
        radio: RadioProfile = THREE_G,
        base_power_w: float = 0.9,
        query_bytes_up: int = 1 * KB,
        serp_bytes_down: int = RADIO_SERP_BYTES,
        server_time_s: float = 0.35,
    ) -> None:
        self.cache = cache
        self.browser = browser or Browser()
        self.radio = radio
        self.base_power_w = base_power_w
        self.query_bytes_up = query_bytes_up
        self.serp_bytes_down = serp_bytes_down
        self.server_time_s = server_time_s
        self._suggest_index = None

    # -- service ---------------------------------------------------------------

    def serve_query(
        self,
        query: str,
        clicked_url: str,
        record_bytes: int = DEFAULT_RECORD_BYTES,
        navigational: Optional[bool] = None,
        timestamp: float = 0.0,
    ) -> ServeResult:
        """Serve one query and feed the click to personalization.

        Args:
            query: the submitted query string.
            clicked_url: the result the user selects (drives ranking and
                personal caching).
            record_bytes: stored size of the clicked result.
            navigational: optional nav flag recorded in the outcome.
            timestamp: optional event time recorded in the outcome.
        """
        tracer = get_tracer()
        with tracer.span("serve_query", timestamp=timestamp) as span:
            with tracer.span("cache_lookup"):
                lookup = self.cache.lookup(query)
            if lookup.hit:
                result = self._serve_hit(lookup, query, navigational, timestamp)
            else:
                result = self._serve_miss(query, navigational, timestamp)
            with tracer.span("record_click"):
                self.cache.record_click(query, clicked_url, record_bytes)
            if tracer.enabled:
                span.set_attrs(
                    hit=result.outcome.hit,
                    source=result.outcome.source.value,
                    model_latency_s=result.outcome.latency_s,
                    model_energy_j=result.outcome.energy_j,
                )
        return result

    def suggest(self, partial_query: str, k: int = 5):
        """Instant suggestions for a partially typed query (Figure 1).

        Returns (suggestions, latency_s).  The latency is microseconds —
        the point of the prototype's auto-suggest box: real results
        appear as the user types, no radio involved.

        The index is re-synced with the hash table on every call (a
        version-token compare, free when nothing changed), so
        suggestions reflect server updates applied since the last
        keystroke — not the cache content the index was built from.
        """
        from repro.pocketsearch.suggest import SuggestIndex

        if self._suggest_index is None:
            self._suggest_index = SuggestIndex(self.cache)
        self._suggest_index.refresh()
        suggestions = self._suggest_index.complete(partial_query, k)
        return suggestions, self._suggest_index.lookup_latency_s()

    def measure_hit(self, query: str) -> ServeResult:
        """Serve a known-cached query without a click (measurement path).

        Used by the Section 6.1 experiments, which repeatedly serve the
        same cached queries and must not perturb personalization state.

        Raises:
            KeyError: if the query is not cached.
        """
        results = self.cache.hashtable.lookup(query)
        if results is None:
            raise KeyError(f"query {query!r} is not cached")
        from repro.pocketsearch.cache import CacheLookup

        lookup = CacheLookup(
            query=query,
            hit=True,
            results=results,
            lookup_latency_s=self.cache.hashtable.lookup_latency_s,
        )
        return self._serve_hit(lookup, query, None, 0.0)

    def _serve_hit(self, lookup, query, navigational, timestamp) -> ServeResult:
        tracer = get_tracer()
        fetch_latency = 0.0
        fetch_energy = 0.0
        with tracer.span("database_read") as fetch_span:
            for result_hash, _score in lookup.results[:RESULTS_PER_PAGE]:
                fetch = self.cache.database.fetch(result_hash)
                fetch_latency += fetch.latency_s
                fetch_energy += fetch.energy_j
            if tracer.enabled:
                fetch_span.set_attrs(
                    n_results=len(lookup.results[:RESULTS_PER_PAGE]),
                    model_latency_s=fetch_latency,
                    model_energy_j=fetch_energy,
                )
        with tracer.span("browser_render"):
            render_s = self.browser.render(SERP_BYTES)
        latency = (
            lookup.lookup_latency_s + fetch_latency + render_s + MISC_LATENCY_S
        )
        energy = (
            latency * self.base_power_w
            + fetch_energy
            + self.browser.render_energy_j(render_s)
        )
        breakdown = {
            "hash_table_lookup_s": lookup.lookup_latency_s,
            "fetch_search_results_s": fetch_latency,
            "browser_rendering_s": render_s,
            "miscellaneous_s": MISC_LATENCY_S,
        }
        outcome = QueryOutcome(
            query=query,
            hit=True,
            source=ServiceSource.CACHE,
            latency_s=latency,
            energy_j=energy,
            timestamp=timestamp,
            navigational=navigational,
        )
        energy_breakdown = EnergyBreakdown(
            storage_j=fetch_energy,
            render_j=self.browser.render_energy_j(render_s),
            base_j=latency * self.base_power_w,
        )
        return ServeResult(
            outcome=outcome, breakdown=breakdown, energy=energy_breakdown
        )

    def _serve_miss(self, query, navigational, timestamp) -> ServeResult:
        tracer = get_tracer()
        with tracer.span("radio_fetch", radio=self.radio.name) as radio_span:
            radio_latency = isolated_request_latency(
                self.radio, self.query_bytes_up, self.serp_bytes_down,
                self.server_time_s,
            )
            radio_parts = isolated_request_components(
                self.radio, self.query_bytes_up, self.serp_bytes_down,
                self.server_time_s,
            )
            radio_energy = (
                radio_parts.ramp_j + radio_parts.transfer_j
            ) + radio_parts.tail_j
            if tracer.enabled:
                radio_span.set_attrs(
                    model_latency_s=radio_latency, model_energy_j=radio_energy
                )
                self._trace_radio_states(tracer, timestamp)
        with tracer.span("browser_render"):
            render_s = self.browser.render(SERP_BYTES)
        lookup_s = self.cache.hashtable.lookup_latency_s
        latency = lookup_s + radio_latency + render_s
        energy = (
            latency * self.base_power_w
            + radio_energy
            + self.browser.render_energy_j(render_s)
        )
        breakdown = {
            "hash_table_lookup_s": lookup_s,
            "radio_s": radio_latency,
            "browser_rendering_s": render_s,
        }
        outcome = QueryOutcome(
            query=query,
            hit=False,
            source=_SOURCE_BY_RADIO[self.radio.name],
            latency_s=latency,
            energy_j=energy,
            timestamp=timestamp,
            navigational=navigational,
        )
        energy_breakdown = EnergyBreakdown(
            ramp_j=radio_parts.ramp_j,
            transfer_j=radio_parts.transfer_j,
            tail_j=radio_parts.tail_j,
            render_j=self.browser.render_energy_j(render_s),
            base_j=latency * self.base_power_w,
        )
        return ServeResult(
            outcome=outcome, breakdown=breakdown, energy=energy_breakdown
        )

    def _trace_radio_states(self, tracer, timestamp: float) -> None:
        """Emit the implied radio state sequence of one isolated request.

        Each miss is costed with the radio starting asleep (the Figure
        15 methodology), so the state machine deterministically walks
        SLEEP -> RAMP -> ACTIVE -> TAIL; the events attribute dwell time
        and energy to each state for trace analysis.
        """
        profile = self.radio
        transfer_s = (
            profile.request_rtt_s()
            + self.query_bytes_up / profile.uplink_bps
            + self.server_time_s
            + self.serp_bytes_down / profile.downlink_bps
        )
        t = timestamp
        for state, dwell_s, power_w in (
            ("ramp", profile.wakeup_s, profile.ramp_power_w),
            ("active", transfer_s, profile.active_power_w),
            ("tail", profile.tail_s, profile.tail_power_w),
        ):
            tracer.event(
                "radio_state",
                state=state,
                t_model=t,
                dwell_s=dwell_s,
                energy_j=dwell_s * power_w,
            )
            t += dwell_s

    # -- reference costs ------------------------------------------------------------

    def radio_only_cost(self, radio: Optional[RadioProfile] = None) -> tuple:
        """(latency, energy) of serving one query purely over a radio.

        This is the Figure 15 baseline: the same query served without
        PocketSearch, including page rendering and base device power.
        """
        profile = radio or self.radio
        radio_latency = isolated_request_latency(
            profile, self.query_bytes_up, self.serp_bytes_down, self.server_time_s
        )
        radio_energy = isolated_request_energy(
            profile, self.query_bytes_up, self.serp_bytes_down, self.server_time_s
        )
        render_s = self.browser.model.render_seconds(SERP_BYTES)
        latency = radio_latency + render_s
        energy = (
            latency * self.base_power_w
            + radio_energy
            + self.browser.render_energy_j(render_s)
        )
        return latency, energy
