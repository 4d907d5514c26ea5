"""Per-request energy attribution: breakdowns, shared-fetch splits, windows.

The paper's headline result is energy, not latency: a local cache hit is
~23x more energy-efficient than a 3G fetch (Figure 15b), and the radio's
wake and tail states dominate per-query joules (Figure 16).  This module
gives the serving stack the same machinery for joules that
:mod:`repro.obs.trace` / :mod:`repro.obs.timeseries` provide for time:

* :class:`EnergyBreakdown` — one request's joules split into the paper's
  components (radio ramp / transfer / tail, flash storage, browser
  render, device base load).  Components sum to the request's total in a
  fixed association order, so attribution tests can assert conservation
  to 1e-9 rather than "roughly".
* :func:`split_shared_radio` — the miss-batching split: when ``k``
  requests share one single-flight radio fetch, the transfer energy
  stays with the leader (it is the one occupying the radio for the
  payload), while the wake (ramp) and tail energy — paid once no matter
  how many requests ride the flight — are divided equally.  The leader's
  share is computed as the *remainder* after the riders take theirs, so
  the shares re-sum to the timeline total exactly by construction.
* :class:`EnergyLedger` — the conservation invariant as running state:
  total radio joules attributed across responses versus total radio
  joules the simulated timeline actually spent.  Any drift between the
  two is an accounting bug, not noise.
* :class:`EnergyWindows` — windowed energy telemetry over the serve
  bucket ring (:mod:`repro.obs.timeseries`): joules/query percentiles,
  watts by service source, and the live hit-vs-miss energy ratio (the
  online Figure 15b).

Everything here is pure bookkeeping over caller-supplied floats and
timestamps — no radio model, no clocks — so it sits at the bottom of the
import ladder next to the rest of :mod:`repro.obs`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.obs.timeseries import (
    BucketRing,
    RequestRecord,
    window_mean,
    window_quantile,
)

__all__ = [
    "ENERGY_COMPONENTS",
    "EnergyBreakdown",
    "EnergyLedger",
    "EnergyWindows",
    "split_shared_radio",
]

#: Component names of a request's energy breakdown, in summation order.
ENERGY_COMPONENTS = ("ramp", "transfer", "tail", "storage", "render", "base")


@dataclass(frozen=True)
class EnergyBreakdown:
    """One request's joules, split by where the power went.

    Attributes:
        ramp_j: radio wake-up (SLEEP -> ACTIVE promotion) energy.
        transfer_j: radio ACTIVE-state transfer energy (RTTs + payload).
        tail_j: radio tail-state energy after the transfer completes.
        storage_j: flash read energy (cache database / page store).
        render_j: browser rendering energy.
        base_j: device base-load energy over the request's latency.
    """

    ramp_j: float = 0.0
    transfer_j: float = 0.0
    tail_j: float = 0.0
    storage_j: float = 0.0
    render_j: float = 0.0
    base_j: float = 0.0

    def __post_init__(self) -> None:
        for name in ENERGY_COMPONENTS:
            if getattr(self, name + "_j") < 0:
                raise ValueError(f"{name}_j must be non-negative")

    @property
    def radio_j(self) -> float:
        """The radio's share (the portion a shared fetch re-attributes)."""
        return (self.ramp_j + self.transfer_j) + self.tail_j

    @property
    def total_j(self) -> float:
        """All components, summed left-to-right in component order."""
        return (
            ((self.ramp_j + self.transfer_j) + self.tail_j)
            + self.storage_j
            + self.render_j
            + self.base_j
        )

    def with_radio(
        self, ramp_j: float, transfer_j: float, tail_j: float
    ) -> "EnergyBreakdown":
        """A copy with the radio components replaced (batch attribution)."""
        return EnergyBreakdown(
            ramp_j=ramp_j,
            transfer_j=transfer_j,
            tail_j=tail_j,
            storage_j=self.storage_j,
            render_j=self.render_j,
            base_j=self.base_j,
        )

    def to_dict(self) -> Dict[str, float]:
        out = {name + "_j": getattr(self, name + "_j") for name in ENERGY_COMPONENTS}
        out["total_j"] = self.total_j
        return out

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "EnergyBreakdown":
        return cls(
            **{
                name + "_j": float(raw.get(name + "_j", 0.0))
                for name in ENERGY_COMPONENTS
            }
        )


def split_shared_radio(
    ramp_j: float, transfer_j: float, tail_j: float, riders: int
) -> Tuple[Tuple[float, float, float], Tuple[float, float, float]]:
    """Split one shared radio fetch's energy across its participants.

    Policy: the transfer energy belongs to the leader (its request is the
    one the radio actually carried); the wake and tail energy — paid once
    for the whole flight — are split equally across all ``riders + 1``
    participants.

    The leader's ramp/tail shares are computed as ``total - riders *
    rider_share`` rather than ``total / k``, so::

        leader + riders * rider == (total - riders*rider) + riders*rider

    re-sums to the timeline total with no division residue — the
    conservation invariant holds to float addition, not to a tolerance.

    Returns:
        ``(leader, rider)`` — two ``(ramp_j, transfer_j, tail_j)``
        triples; every rider receives the same ``rider`` share.
    """
    if riders < 0:
        raise ValueError(f"riders must be non-negative, got {riders}")
    if riders == 0:
        return (ramp_j, transfer_j, tail_j), (0.0, 0.0, 0.0)
    k = riders + 1
    rider_ramp = ramp_j / k
    rider_tail = tail_j / k
    leader = (
        ramp_j - riders * rider_ramp,
        transfer_j,
        tail_j - riders * rider_tail,
    )
    return leader, (rider_ramp, 0.0, rider_tail)


class EnergyLedger:
    """Running conservation check: attributed vs timeline radio joules.

    ``attributed_j`` accumulates the radio portion of every response's
    energy breakdown; ``timeline_j`` accumulates the simulated radio
    timeline's spend (the full fetch energy, recorded once per flight by
    its leader).  If attribution is correct the two track each other:
    riders contribute their shares to ``attributed_j`` and nothing to
    ``timeline_j``, and the leader's reduced share closes the gap.
    """

    __slots__ = ("attributed_j", "timeline_j", "requests")

    def __init__(self) -> None:
        self.attributed_j = 0.0
        self.timeline_j = 0.0
        self.requests = 0

    def add(self, attributed_radio_j: float, timeline_j: float) -> None:
        """Record one response's radio attribution and timeline spend."""
        self.attributed_j += attributed_radio_j
        self.timeline_j += timeline_j
        self.requests += 1

    @property
    def conservation_error_j(self) -> float:
        return self.attributed_j - self.timeline_j

    def conserved(self, tol_j: Optional[float] = None) -> bool:
        """Whether attribution matches the timeline within ``tol_j``.

        The default tolerance scales with the totals (float sums over
        many requests accumulate ulp noise) but never exceeds a
        microjoule per run — far below one request's energy.
        """
        if tol_j is None:
            tol_j = max(1e-9, 1e-12 * abs(self.timeline_j))
        return abs(self.conservation_error_j) <= tol_j

    def snapshot(self) -> Dict[str, float]:
        return {
            "attributed_radio_j": self.attributed_j,
            "timeline_radio_j": self.timeline_j,
            "conservation_error_j": self.conservation_error_j,
            "requests": self.requests,
        }


class EnergyWindows:
    """Windowed energy telemetry over the serve bucket ring.

    One instance rides inside the serve telemetry plane, reading the
    energy series of its :class:`~repro.obs.timeseries.ServeBucket`
    ring.  Feed it every attributed :class:`~repro.obs.timeseries.RequestRecord`
    via :meth:`on_request` (the conservation ledger and the source
    names) and read the rolling view with :meth:`rolling` /
    :meth:`per_bucket` / :meth:`snapshot`.
    """

    def __init__(self, ring: BucketRing) -> None:
        self._ring = ring
        #: every service source seen, including ones aged out of the window
        self._sources: Set[str] = set()
        self.ledger = EnergyLedger()

    def on_request(self, record: RequestRecord) -> None:
        """Record one attributed response: its radio joules against the
        simulated radio-timeline joules it reports (the full fetch for a
        leader/solo fetch, 0.0 for riders)."""
        self._sources.add(record.source)
        self.ledger.add(record.radio_j, record.timeline_j)

    # -- read side -----------------------------------------------------------

    def rolling(self, t: float) -> Dict[str, Any]:
        """Headline rolling energy stats over the window ending at ``t``."""
        buckets = [b for _, b in self._ring.live(t)]
        window_s = self._ring.window_s
        hit_mean, hit_n = _side_mean(b.hit_energy for b in buckets)
        miss_mean, miss_n = _side_mean(b.miss_energy for b in buckets)
        ratio = float("nan")
        if hit_n and miss_n and hit_mean:
            ratio = miss_mean / hit_mean
        sources = {}
        for name in sorted(self._sources):
            joules = sum(
                b.energy_by_source[name]
                for b in buckets
                if name in b.energy_by_source
            )
            sources[name] = {"energy_j": joules, "power_w": joules / window_s}
        energy = [b.energy for b in buckets]
        return {
            "energy_j_per_query": window_mean(energy),
            "energy_j_p50": window_quantile(energy, 50),
            "energy_j_p99": window_quantile(energy, 99),
            "power_w": sum(s.total for s in energy if s.count) / window_s,
            "hit_energy_j": hit_mean,
            "miss_energy_j": miss_mean,
            "hit_miss_energy_ratio": ratio,
            "sources": sources,
            "conservation": self.ledger.snapshot(),
        }

    def per_bucket(self, t: float) -> List[Dict[str, Any]]:
        """Aligned per-bucket energy rows, oldest first.

        Each row carries the bucket's total joules, its average power
        (joules over the bucket width — the online power trace), the
        mean joules per completed query, and the per-source wattage.
        """
        width = self._ring.width_s
        names = sorted(self._sources)
        rows = []
        for idx, b in self._ring.live(t):
            series = b.energy
            if not series.count:
                continue
            rows.append(
                {
                    "t_start": idx * width,
                    "energy_j": series.total,
                    "power_w": series.total / width,
                    "count": series.count,
                    "energy_j_per_query": series.total / series.count,
                    "sources": {
                        name: b.energy_by_source.get(name, 0.0) / width
                        for name in names
                    },
                }
            )
        return rows

    def snapshot(self, t: float) -> Dict[str, Any]:
        return {
            "rolling": self.rolling(t),
            "per_bucket": self.per_bucket(t),
        }


def _side_mean(sides) -> Tuple[float, int]:
    """Pooled mean and count of ``[count, joules]`` bucket tallies."""
    count = 0
    joules = 0.0
    for n, j in sides:
        if n:
            count += n
            joules += j
    return (joules / count if count else float("nan")), count
