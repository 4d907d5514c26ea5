"""Open-loop load generation for the serving layer.

The generator builds a *workload* — a precomputed, sorted schedule of
``(arrival_offset_s, ServeRequest)`` — from a :class:`repro.logs`
search log.  Open-loop means the schedule never waits for the server:
arrival times are fixed up front, so an overloaded server faces a
growing backlog exactly as a real population of phones would, instead
of the closed-loop illusion where slow responses throttle the offered
load (the coordinated-omission trap).

Two arrival processes:

* ``"poisson"`` — a nonhomogeneous Poisson process whose base rate is
  the log's own aggregate query rate times ``rate_multiplier``,
  modulated by the generator's diurnal profile (thinning); devices are
  drawn volume-weighted, and each device replays its own logged query
  sequence in order (cycling if the schedule outlasts it);
* ``"log"`` — the log's literal arrivals, time-compressed by
  ``rate_multiplier`` (an x10 multiplier squeezes the trace into a
  tenth of its span).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.edge.placement import assign_device_regions
from repro.logs.generator import DIURNAL_WEIGHTS, SearchLog
from repro.logs.schema import MONTH_SECONDS
from repro.pocketsearch.content import result_record_bytes
from repro.serve.requests import ServeRequest

__all__ = [
    "LoadGenConfig",
    "Workload",
    "assign_device_regions",
    "build_workload",
]


@dataclass(frozen=True)
class LoadGenConfig:
    """Workload-construction knobs.

    Args:
        duration_s: schedule length in loop-clock seconds.
        rate_multiplier: offered load relative to the log's natural
            aggregate rate (10.0 = 10x overload).
        seed: RNG seed for arrivals and device assignment.
        arrivals: ``"poisson"`` (synthetic process) or ``"log"``
            (time-compressed trace).
        diurnal: modulate the Poisson rate by the hour-of-day profile.
        t_origin_s: phase of the diurnal profile at schedule time 0
            (e.g. ``9 * 3600.0`` starts the run at 9am).
        max_devices: cap on distinct devices (highest-volume first);
            None uses every device active in the source month.
        n_regions: when given, every scheduled device also gets a
            deterministic geographic/affinity region via
            :func:`repro.edge.placement.assign_device_regions`
            (recorded in ``Workload.device_regions``).
        placement_skew: Zipf-like skew of the region assignment
            (0.0 uniform; only meaningful with ``n_regions``).
        burst_start_s: start of an injected overload burst (None — the
            default — injects nothing and leaves the schedule bit-
            identical to earlier releases).  Poisson arrivals only.
        burst_duration_s: how long the burst lasts.
        burst_multiplier: rate multiplier inside the burst window
            (relative to the already-scaled offered rate) — the knob CI
            uses to manufacture incidents for the flight recorder.
    """

    duration_s: float = 600.0
    rate_multiplier: float = 1.0
    seed: int = 7
    arrivals: str = "poisson"
    diurnal: bool = True
    t_origin_s: float = 0.0
    max_devices: Optional[int] = None
    n_regions: Optional[int] = None
    placement_skew: float = 0.0
    burst_start_s: Optional[float] = None
    burst_duration_s: float = 0.0
    burst_multiplier: float = 1.0

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.rate_multiplier <= 0:
            raise ValueError("rate_multiplier must be positive")
        if self.arrivals not in ("poisson", "log"):
            raise ValueError(
                f"arrivals must be 'poisson' or 'log', got {self.arrivals!r}"
            )
        if self.max_devices is not None and self.max_devices <= 0:
            raise ValueError("max_devices must be positive when given")
        if self.n_regions is not None and self.n_regions <= 0:
            raise ValueError("n_regions must be positive when given")
        if self.placement_skew < 0:
            raise ValueError("placement_skew must be non-negative")
        if self.burst_start_s is not None:
            if self.arrivals == "log":
                raise ValueError(
                    "burst injection requires arrivals='poisson'"
                )
            if self.burst_start_s < 0:
                raise ValueError("burst_start_s must be non-negative")
            if self.burst_duration_s <= 0:
                raise ValueError(
                    "burst_duration_s must be positive when bursting"
                )
            if self.burst_multiplier <= 0:
                raise ValueError("burst_multiplier must be positive")


@dataclass
class Workload:
    """A fixed open-loop schedule of requests."""

    arrivals: List[Tuple[float, ServeRequest]]
    duration_s: float
    #: device -> home region (populated when ``LoadGenConfig.n_regions``
    #: is set; independent per-device draws, so stable across runs and
    #: fleet growth)
    device_regions: Dict[int, int] = field(default_factory=dict)

    @property
    def n_requests(self) -> int:
        return len(self.arrivals)

    @property
    def n_devices(self) -> int:
        return len({req.device_id for _, req in self.arrivals})

    @property
    def offered_rate(self) -> float:
        """Scheduled requests per loop-clock second."""
        return self.n_requests / self.duration_s if self.duration_s else 0.0


class _DeviceScript:
    """One device's logged query sequence, replayed in order, cycling.

    Holds the device's row indices into the month log; a request is
    built only when the schedule takes one.
    """

    __slots__ = ("log", "device_id", "rows", "next_i")

    def __init__(
        self, log: SearchLog, device_id: int, rows: np.ndarray
    ) -> None:
        self.log = log
        self.device_id = device_id
        self.rows = rows
        self.next_i = 0

    def take(self, timestamp: float) -> ServeRequest:
        row = self.rows[self.next_i % len(self.rows)]
        self.next_i += 1
        log = self.log
        rkey = int(log.result_keys[row])
        # Stamped with the schedule's arrival time so serve-layer
        # accounting (windows, refresh days) sees loop-clock time.
        return ServeRequest(
            device_id=self.device_id,
            key=log.query_string(int(log.query_keys[row])),
            timestamp=timestamp,
            clicked_url=log.result_url(rkey),
            record_bytes=result_record_bytes(log, rkey),
            navigational=bool(log.navigational[row]),
        )


def _device_scripts(
    month_log: SearchLog, max_devices: Optional[int]
) -> Dict[int, _DeviceScript]:
    """Per-device scripts of the highest-volume devices."""
    user_ids = month_log.user_ids
    uids, counts = np.unique(user_ids, return_counts=True)
    order = np.argsort(-counts, kind="stable")
    uids = uids[order]
    if max_devices is not None:
        uids = uids[:max_devices]
    # The kept devices' rows, grouped by device and in log order within
    # each group (a stable sort keeps the log order).
    rows = np.flatnonzero(np.isin(user_ids, uids))
    rows = rows[np.argsort(user_ids[rows], kind="stable")]
    bounds = np.flatnonzero(np.diff(user_ids[rows])) + 1
    scripts: Dict[int, _DeviceScript] = {}
    for group in np.split(rows, bounds):
        uid = int(user_ids[group[0]])
        scripts[uid] = _DeviceScript(month_log, uid, group)
    return scripts


def build_workload(
    log: SearchLog, month: int, config: LoadGenConfig = LoadGenConfig()
) -> Workload:
    """Build an open-loop schedule from month ``month`` of ``log``."""
    month_log = log.month(month)
    if month_log.n_events == 0:
        raise ValueError(f"log month {month} has no events")
    if config.arrivals == "log":
        workload = _log_workload(month_log, month, config)
    else:
        workload = _poisson_workload(month_log, config)
    if config.n_regions is not None:
        device_ids = sorted({req.device_id for _, req in workload.arrivals})
        workload.device_regions = assign_device_regions(
            device_ids,
            config.n_regions,
            skew=config.placement_skew,
            seed=config.seed,
        )
    return workload


def _log_workload(
    month_log: SearchLog, month: int, config: LoadGenConfig
) -> Workload:
    """The trace's own arrivals, compressed by the rate multiplier."""
    t0 = month * MONTH_SECONDS
    scripts = _device_scripts(month_log, config.max_devices)
    offsets = (month_log.timestamps - t0) / config.rate_multiplier
    kept = np.isin(month_log.user_ids, list(scripts)) & (
        offsets < config.duration_s
    )
    arrivals: List[Tuple[float, ServeRequest]] = []
    for i in np.flatnonzero(kept).tolist():
        offset = float(offsets[i])
        uid = int(month_log.user_ids[i])
        arrivals.append((offset, scripts[uid].take(offset)))
    arrivals.sort(key=lambda pair: pair[0])
    return Workload(arrivals=arrivals, duration_s=config.duration_s)


def _poisson_workload(
    month_log: SearchLog, config: LoadGenConfig
) -> Workload:
    """Nonhomogeneous Poisson arrivals over volume-weighted devices."""
    rng = np.random.default_rng(config.seed)
    scripts = _device_scripts(month_log, config.max_devices)
    ordered = [scripts[uid] for uid in sorted(scripts)]
    weights = np.array([len(s.rows) for s in ordered], dtype=float)
    weights /= weights.sum()
    # numpy's ``rng.choice(a, p=weights)`` builds this cdf on every call,
    # then draws one ``rng.random()`` and searches it (side="right");
    # the same draw against the cdf built once picks the same device.
    cdf = weights.cumsum()
    cdf /= cdf[-1]

    # The log's natural aggregate rate, scaled by the overload knob.
    base_rate = (
        month_log.n_events / MONTH_SECONDS
    ) * config.rate_multiplier
    mean_w = float(DIURNAL_WEIGHTS.mean())
    peak_factor = float(DIURNAL_WEIGHTS.max()) / mean_w if config.diurnal else 1.0
    lam_max = base_rate * peak_factor
    burst = config.burst_start_s is not None
    if burst:
        # Raising lam_max only when a burst is configured keeps the
        # thinning stream — and therefore every burst-free schedule —
        # bit-identical to earlier releases.
        lam_max *= max(1.0, config.burst_multiplier)

    def intensity(t: float) -> float:
        if not config.diurnal:
            rate = base_rate
        else:
            hour = int(((t + config.t_origin_s) % 86400.0) // 3600.0)
            rate = base_rate * float(DIURNAL_WEIGHTS[hour]) / mean_w
        if burst and (
            config.burst_start_s
            <= t
            < config.burst_start_s + config.burst_duration_s
        ):
            rate *= config.burst_multiplier
        return rate

    # The thinning loop stays scalar: the ziggurat exponential consumes
    # a variable number of random words, so batched draws would shift
    # the stream.
    arrivals: List[Tuple[float, ServeRequest]] = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / lam_max))
        if t >= config.duration_s:
            break
        # Thinning: accept with probability lambda(t) / lambda_max.
        if rng.random() * lam_max > intensity(t):
            continue
        script = ordered[int(cdf.searchsorted(rng.random(), side="right"))]
        arrivals.append((t, script.take(t)))
    return Workload(arrivals=arrivals, duration_s=config.duration_s)
