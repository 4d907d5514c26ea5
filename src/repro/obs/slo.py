"""SLO monitors with multi-window burn-rate alerting.

An SLO here is a *good-events fraction* objective, the form every
serving target in this repo reduces to:

* ``latency``   — a request is good iff it completed within
  ``threshold_s`` (sheds are bad: the user got no answer);
* ``hit_rate``  — a completed request is good iff it hit the cache;
* ``shed_rate`` — any admitted request is good, any shed is bad.

``objective`` is the required good fraction (0.99 = "99% of requests
under the latency threshold"), so the *error budget* is ``1 -
objective``.  The monitor tracks good/bad events in two rolling windows
(a long one for significance, a short one for freshness — the classic
multi-window burn-rate pattern) and computes each window's **burn
rate**::

    burn = (bad / (bad + good)) / budget

Burn 1.0 means the budget is being consumed exactly at the sustainable
rate; burn 10 means ten times too fast.  An alert fires when *both*
windows exceed ``burn_threshold`` — the long window filters blips, the
short window ends the alert promptly once the system recovers.  Alert
*transitions* (inactive -> firing) are recorded as typed
:class:`SLOAlert` events and, when a tracer is recording, emitted into
the span/event stream as ``slo_alert`` events.

The tallies are :class:`~repro.obs.timeseries.BucketRing` slots, and
like everything in that module the monitor never reads
a wall clock — timestamps come from the caller — so alert sequences are
deterministic under :class:`~repro.serve.vclock.VirtualTimeLoop`.

Policies are plain data (JSON-loadable) so CI can keep them in a file::

    {
      "burn_threshold": 2.0,
      "long_window_s": 60.0,
      "short_window_s": 5.0,
      "rules": [
        {"name": "p99-latency", "kind": "latency",
         "threshold_s": 2.0, "objective": 0.99},
        {"name": "hit-rate", "kind": "hit_rate", "objective": 0.45},
        {"name": "shed", "kind": "shed_rate", "objective": 0.95}
      ]
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.timeseries import BucketRing

__all__ = ["SLOAlert", "SLOMonitor", "SLOPolicy", "SLORule"]

RULE_KINDS = ("latency", "hit_rate", "shed_rate", "energy", "battery_burn")


@dataclass(frozen=True)
class SLORule:
    """One good-fraction objective.

    Args:
        name: rule identifier (alert and verdict key).
        kind: ``"latency"``, ``"hit_rate"``, ``"shed_rate"``,
            ``"energy"``, or ``"battery_burn"``.
        objective: required good-events fraction in (0, 1).
        threshold_s: latency cutoff; required for ``kind="latency"``.
        threshold_j: per-request joules budget; required for
            ``kind="energy"`` (a request is good iff its attributed
            energy stays within the budget).
        threshold: battery burn cutoff as charge fraction per simulated
            day; required for ``kind="battery_burn"`` (a request is good
            iff its device's projected burn rate stays at or below it).
    """

    name: str
    kind: str
    objective: float
    threshold_s: Optional[float] = None
    threshold_j: Optional[float] = None
    threshold: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in RULE_KINDS:
            raise ValueError(
                f"rule kind must be one of {RULE_KINDS}, got {self.kind!r}"
            )
        if not 0.0 < self.objective < 1.0:
            raise ValueError(
                f"objective must be in (0, 1), got {self.objective}"
            )
        if self.kind == "latency" and (
            self.threshold_s is None or self.threshold_s <= 0
        ):
            raise ValueError("latency rules need a positive threshold_s")
        if self.kind == "energy" and (
            self.threshold_j is None or self.threshold_j <= 0
        ):
            raise ValueError("energy rules need a positive threshold_j")
        if self.kind == "battery_burn" and (
            self.threshold is None or self.threshold <= 0
        ):
            raise ValueError("battery_burn rules need a positive threshold")

    @property
    def budget(self) -> float:
        """Allowed bad-events fraction."""
        return 1.0 - self.objective

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "objective": self.objective,
        }
        if self.threshold_s is not None:
            out["threshold_s"] = self.threshold_s
        if self.threshold_j is not None:
            out["threshold_j"] = self.threshold_j
        if self.threshold is not None:
            out["threshold"] = self.threshold
        return out

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "SLORule":
        return cls(
            name=raw["name"],
            kind=raw["kind"],
            objective=float(raw["objective"]),
            threshold_s=(
                float(raw["threshold_s"]) if "threshold_s" in raw else None
            ),
            threshold_j=(
                float(raw["threshold_j"]) if "threshold_j" in raw else None
            ),
            threshold=(
                float(raw["threshold"]) if "threshold" in raw else None
            ),
        )


@dataclass(frozen=True)
class SLOPolicy:
    """A set of rules plus the shared alerting windows."""

    rules: Tuple[SLORule, ...]
    long_window_s: float = 60.0
    short_window_s: float = 5.0
    burn_threshold: float = 2.0

    def __post_init__(self) -> None:
        if not self.rules:
            raise ValueError("policy needs at least one rule")
        names = [r.name for r in self.rules]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate rule names in {names}")
        if self.short_window_s <= 0 or self.long_window_s <= 0:
            raise ValueError("windows must be positive")
        if self.short_window_s > self.long_window_s:
            raise ValueError("short window must not exceed the long window")
        if self.burn_threshold <= 0:
            raise ValueError("burn_threshold must be positive")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "long_window_s": self.long_window_s,
            "short_window_s": self.short_window_s,
            "burn_threshold": self.burn_threshold,
            "rules": [r.to_dict() for r in self.rules],
        }

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "SLOPolicy":
        return cls(
            rules=tuple(SLORule.from_dict(r) for r in raw.get("rules", ())),
            long_window_s=float(raw.get("long_window_s", 60.0)),
            short_window_s=float(raw.get("short_window_s", 5.0)),
            burn_threshold=float(raw.get("burn_threshold", 2.0)),
        )

    @classmethod
    def from_json(cls, path: str) -> "SLOPolicy":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass(frozen=True)
class SLOAlert:
    """One burn-rate alert transition (inactive -> firing)."""

    t: float
    rule: str
    kind: str
    burn_long: float
    burn_short: float
    budget: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "t": self.t,
            "rule": self.rule,
            "kind": self.kind,
            "burn_long": self.burn_long,
            "burn_short": self.burn_short,
            "budget": self.budget,
        }


class _RuleState:
    """Rolling and cumulative good/bad tallies for one rule.

    One ring spans the long window; each slot is a ``[bad, total]``
    tally, and the short window reads the newest ``short_n`` slots.
    """

    __slots__ = ("rule", "window", "short_n", "bad", "total", "firing",
                 "alerts")

    def __init__(self, rule: SLORule, policy: SLOPolicy, width_s: float) -> None:
        self.rule = rule
        long_n = max(1, round(policy.long_window_s / width_s))
        self.short_n = max(1, round(policy.short_window_s / width_s))
        self.window = BucketRing(width_s, long_n, lambda: [0, 0])
        self.bad = 0
        self.total = 0
        self.firing = False
        self.alerts = 0

    def record(self, t: float, good: bool) -> None:
        tally = self.window.at(t)
        self.total += 1
        tally[1] += 1
        if not good:
            self.bad += 1
            tally[0] += 1

    def burn(self, t: float, short: bool) -> float:
        live = self.window.live(t, self.short_n if short else None)
        total = sum(tally[1] for _, tally in live)
        if total == 0:
            return 0.0
        bad = sum(tally[0] for _, tally in live)
        return (bad / total) / self.rule.budget

    @property
    def bad_fraction(self) -> float:
        return self.bad / self.total if self.total else 0.0


class SLOMonitor:
    """Classify request events against a policy; alert on budget burn.

    Feed every request through :meth:`record_request`, then call
    :meth:`evaluate` periodically (the serve telemetry does so once per
    bucket).  :meth:`verdict` yields the machine-readable pass/fail
    record that lands in run manifests.
    """

    def __init__(self, policy: SLOPolicy, width_s: float = 1.0) -> None:
        if width_s <= 0:
            raise ValueError(f"width_s must be positive, got {width_s}")
        self.policy = policy
        self.width_s = width_s
        self._states = [
            _RuleState(rule, policy, width_s) for rule in policy.rules
        ]
        self.alerts: List[SLOAlert] = []
        self._t_last: float = 0.0

    # -- event intake --------------------------------------------------------

    def record_request(
        self,
        t: float,
        latency_s: Optional[float] = None,
        hit: Optional[bool] = None,
        shed: bool = False,
        energy_j: Optional[float] = None,
        battery_burn_per_day: Optional[float] = None,
    ) -> None:
        """Classify one request against every rule.

        Args:
            t: loop-clock completion (or shed) time.
            latency_s: end-to-end sojourn; ``None`` for sheds.
            hit: cache hit flag; ``None`` for sheds.
            shed: whether admission control rejected the request.
            energy_j: attributed joules of the request; ``None`` for
                sheds (a rejected request spends no radio energy) or
                when attribution is off.
            battery_burn_per_day: the device's projected charge fraction
                burned per simulated day, as of this request.
        """
        self._t_last = max(self._t_last, t)
        for state in self._states:
            kind = state.rule.kind
            if kind == "shed_rate":
                state.record(t, good=not shed)
            elif kind == "latency":
                if shed:
                    state.record(t, good=False)
                elif latency_s is not None:
                    state.record(t, good=latency_s <= state.rule.threshold_s)
            elif kind == "hit_rate":
                if not shed and hit is not None:
                    state.record(t, good=hit)
            elif kind == "energy":
                if not shed and energy_j is not None:
                    state.record(t, good=energy_j <= state.rule.threshold_j)
            elif kind == "battery_burn":
                if not shed and battery_burn_per_day is not None:
                    state.record(
                        t, good=battery_burn_per_day <= state.rule.threshold
                    )

    # -- alerting ------------------------------------------------------------

    def evaluate(self, t: float) -> List[SLOAlert]:
        """Update burn-rate alert state at ``t``; returns newly fired
        alerts (empty while an alert stays active)."""
        self._t_last = max(self._t_last, t)
        fired: List[SLOAlert] = []
        threshold = self.policy.burn_threshold
        for state in self._states:
            burn_long = state.burn(t, short=False)
            burn_short = state.burn(t, short=True)
            over = burn_long >= threshold and burn_short >= threshold
            if over and not state.firing:
                state.firing = True
                state.alerts += 1
                alert = SLOAlert(
                    t=t,
                    rule=state.rule.name,
                    kind=state.rule.kind,
                    burn_long=burn_long,
                    burn_short=burn_short,
                    budget=state.rule.budget,
                )
                self.alerts.append(alert)
                fired.append(alert)
            elif not over and state.firing:
                state.firing = False
        return fired

    # -- reporting -----------------------------------------------------------

    def status(self, t: float) -> List[Dict[str, Any]]:
        """Per-rule live view (burn rates, firing flag) at ``t``."""
        return [
            {
                "rule": s.rule.name,
                "kind": s.rule.kind,
                "budget": s.rule.budget,
                "burn_long": s.burn(t, short=False),
                "burn_short": s.burn(t, short=True),
                "bad_fraction": s.bad_fraction,
                "firing": s.firing,
                "alerts": s.alerts,
            }
            for s in self._states
        ]

    def verdict(self) -> Dict[str, Any]:
        """Machine-readable end-of-run record for the manifest.

        A rule passes iff its whole-run bad fraction stayed within
        budget *and* it never fired a burn-rate alert; the run verdict
        is the conjunction.
        """
        rules: Dict[str, Any] = {}
        passed = True
        for s in self._states:
            rule_pass = s.bad_fraction <= s.rule.budget and s.alerts == 0
            passed = passed and rule_pass
            rules[s.rule.name] = {
                "kind": s.rule.kind,
                "objective": s.rule.objective,
                "budget": s.rule.budget,
                "total": s.total,
                "bad": s.bad,
                "bad_fraction": s.bad_fraction,
                "alerts": s.alerts,
                "passed": rule_pass,
            }
        return {
            "verdict": "pass" if passed else "fail",
            "passed": passed,
            "alerts_total": len(self.alerts),
            "alerts": [a.to_dict() for a in self.alerts],
            "rules": rules,
            "policy": self.policy.to_dict(),
        }
