"""Incident triggers for the flight recorder.

A :class:`TriggerEngine` watches the stream of events the
:class:`~repro.obs.flight.FlightRecorder` captures and decides when the
recent past constitutes an *incident* worth preserving:

* an SLO burn alert fired (``slo-alert``);
* a bucket's shed fraction crossed a spike threshold (``shed-spike``);
* a request's per-hop re-sum error exceeded tolerance
  (``hop-resum-error``) — the telescoping-segments or
  energy-components invariant broke live;
* the energy ledger's conservation error drifted past tolerance
  (``ledger-drift``);
* a manually scheduled loop time was reached (``manual``).

Firing does **not** dump immediately: the engine waits
``baseline_window_s`` of further traffic so the bundle also contains a
*trailing baseline* window to diff the incident against, then calls
:meth:`~repro.obs.flight.FlightRecorder.dump_bundle` exactly once per
incident (``max_bundles`` bounds disk usage).  All decisions are keyed
by loop-clock timestamps, so trigger times — and therefore bundles —
are deterministic under :class:`~repro.serve.vclock.VirtualTimeLoop`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

__all__ = ["TriggerConfig", "TriggerEngine"]


@dataclass(frozen=True)
class TriggerConfig:
    """What fires, and how much history each bundle carries.

    Attributes:
        slo_alert: dump a bundle when any SLO burn alert fires.
        shed_spike: shed fraction of one telemetry bucket at or above
            which to fire (None disables).
        shed_spike_min_events: minimum events (completed + shed) in the
            bucket before a spike can fire — keeps one early shed in an
            almost-empty bucket from counting as an incident.
        hop_resum_tol_s: per-request segment re-sum error (seconds)
            above which to fire (None disables).
        hop_resum_tol_j: per-request energy re-sum error (joules) above
            which to fire (None disables).
        ledger_drift_j: absolute energy-ledger conservation error above
            which to fire (None disables).
        trigger_at: loop time of a manually scheduled dump (None
            disables) — the deterministic stand-in for "the operator
            pressed the capture button".
        incident_window_s: how far before the trigger the analysis
            window reaches.
        baseline_window_s: trailing post-trigger window captured before
            the dump happens.
        bundle_dir: directory bundles are written under.
        max_bundles: incidents dumped before the engine goes quiet.
    """

    slo_alert: bool = True
    shed_spike: Optional[float] = 0.5
    shed_spike_min_events: int = 16
    hop_resum_tol_s: Optional[float] = 1e-6
    hop_resum_tol_j: Optional[float] = 1e-6
    ledger_drift_j: Optional[float] = None
    trigger_at: Optional[float] = None
    incident_window_s: float = 60.0
    baseline_window_s: float = 30.0
    bundle_dir: str = "flight_bundles"
    max_bundles: int = 1

    def __post_init__(self) -> None:
        if self.incident_window_s <= 0:
            raise ValueError("incident_window_s must be positive")
        if self.baseline_window_s < 0:
            raise ValueError("baseline_window_s must be non-negative")
        if self.max_bundles < 1:
            raise ValueError("max_bundles must be at least 1")
        if self.shed_spike is not None and not 0 < self.shed_spike <= 1:
            raise ValueError("shed_spike must be in (0, 1]")


class TriggerEngine:
    """Fire-and-wait incident detection over flight-recorder events."""

    def __init__(self, config: Optional[TriggerConfig] = None) -> None:
        self.config = config or TriggerConfig()
        #: the armed trigger record waiting out its baseline window
        self.pending: Optional[Dict[str, Any]] = None
        self.dumped: List[str] = []
        self._manual_fired = False

    @property
    def exhausted(self) -> bool:
        """True once ``max_bundles`` incidents have been dumped."""
        return len(self.dumped) >= self.config.max_bundles

    # -- event hooks (called by FlightRecorder) ------------------------------

    def on_response(self, t: float, record, flight) -> None:
        """Check one completed request's re-sum errors (``record`` is its
        :class:`~repro.obs.timeseries.RequestRecord`)."""
        cfg = self.config
        if (
            cfg.hop_resum_tol_s is not None
            and record.hop_err_s > cfg.hop_resum_tol_s
        ):
            self._fire(
                t,
                "hop-resum-error",
                flight,
                {"hop_err_s": record.hop_err_s, "trace_id": record.trace_id},
            )
        elif (
            cfg.hop_resum_tol_j is not None
            and record.hop_err_j > cfg.hop_resum_tol_j
        ):
            self._fire(
                t,
                "hop-resum-error",
                flight,
                {"hop_err_j": record.hop_err_j, "trace_id": record.trace_id},
            )

    def on_alerts(self, t: float, alerts, flight) -> None:
        if self.config.slo_alert and alerts:
            self._fire(
                t,
                "slo-alert",
                flight,
                {"rules": [alert.rule for alert in alerts]},
            )

    def on_tick(self, t: float, flight, telemetry) -> None:
        cfg = self.config
        if (
            cfg.trigger_at is not None
            and t >= cfg.trigger_at
            and not self._manual_fired
        ):
            self._manual_fired = True
            self._fire(t, "manual", flight, {"trigger_at": cfg.trigger_at})
        if cfg.shed_spike is not None:
            # The counts of the bucket this tick closes, as its row holds
            # them.
            bucket = telemetry.closing_bucket()
            events = bucket.completed + bucket.shed
            if events and events >= cfg.shed_spike_min_events:
                fraction = bucket.shed / events
                if fraction >= cfg.shed_spike:
                    self._fire(
                        t,
                        "shed-spike",
                        flight,
                        {
                            "shed_fraction": fraction,
                            "events": events,
                            "reasons": dict(bucket.shed_reasons),
                        },
                    )
        if cfg.ledger_drift_j is not None:
            ledger = telemetry.energy.ledger
            drift = abs(ledger.conservation_error_j)
            if drift > cfg.ledger_drift_j:
                self._fire(t, "ledger-drift", flight, {"drift_j": drift})
        self._maybe_dump(t, flight)

    def finalize(self, t: float, flight, force: bool = False) -> None:
        """End of run: a pending trigger dumps with whatever baseline it
        accumulated; ``force=True`` dumps a manual bundle regardless."""
        if self.pending is None and force and not self.exhausted:
            self._fire(t, "manual", flight, {"forced": True})
        self._maybe_dump(t, flight, at_end=True)

    # -- internals -----------------------------------------------------------

    def _fire(
        self, t: float, kind: str, flight, detail: Dict[str, Any]
    ) -> None:
        """Arm a trigger (first one wins while a dump is pending)."""
        if self.pending is not None or self.exhausted:
            return
        record = {"kind": "trigger", "t": t, "trigger": kind, "detail": detail}
        flight.record_trigger(record)
        self.pending = record

    def _maybe_dump(self, t: float, flight, at_end: bool = False) -> None:
        pending = self.pending
        if pending is None:
            return
        t0 = pending["t"]
        if not at_end and t < t0 + self.config.baseline_window_s:
            return
        t_end = min(t, t0 + self.config.baseline_window_s)
        windows = {
            "incident": [max(0.0, t0 - self.config.incident_window_s), t0],
            "baseline": [t0, max(t0, t_end)],
        }
        path = flight.dump_bundle(self.config.bundle_dir, pending, windows)
        self.dumped.append(path)
        self.pending = None
