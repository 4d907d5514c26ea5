"""The benchmark's workloads: inputs, entry-point calls and output checks.

Each workload runs in one process on one event loop.  ``setup`` builds
the inputs (the synthetic log through ``default_log(seed=...)``, spelled
the way the entry points spell it so the memoized log is reused rather
than regenerated), ``call`` runs the public entry point a user reaches,
and ``check`` verifies the outputs and returns the list of failures.

* ``serve-fleet`` and ``serve-hot`` call ``run_loadtest`` wired the way
  ``repro loadtest`` wires it: telemetry with the flight recorder
  attached, bundles pointed at a scratch directory.  The schedule is
  open loop in simulated time (``VirtualTimeLoop``), so the modelled
  outputs are exact per seed and the wall time measures only the
  program.
* ``replay-daily`` calls ``hitrate.daily_updates`` with the vectorized
  engine, which is what ``repro daily-updates --engine vectorized`` runs.
"""

from __future__ import annotations

import math
import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ledger import Ledger, percentile

#: Energy and hop re-sums must agree with the end-to-end figures to this.
RESUM_TOL = 1e-9

DAY_SECONDS = 24 * 3600


@dataclass(frozen=True)
class ServeShape:
    """One ``repro loadtest`` invocation: the flags that differ."""

    duration_s: float
    rate: float
    max_devices: Optional[int]
    edge_nodes: Optional[int]


@dataclass(frozen=True)
class ReplayShape:
    """One ``repro daily-updates --engine vectorized`` invocation."""

    users_per_class: int


#: Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Any] = {
    # Every device active in the month may be drawn; most send one or
    # two queries, so per-device cache provisioning dominates.
    "serve-fleet": ServeShape(
        duration_s=150.0, rate=100.0, max_devices=None, edge_nodes=None
    ),
    # Twenty highest-volume devices for hours of simulated time behind
    # eight edge nodes: each device serves hundreds of requests, so the
    # per-request path and the per-bucket observers dominate.
    "serve-hot": ServeShape(
        duration_s=30000.0, rate=10.0, max_devices=20, edge_nodes=8
    ),
    # Static-cache and daily-update replays of the same users, at the
    # size ``repro daily-updates`` runs.
    "replay-daily": ReplayShape(users_per_class=10),
}


class Run:
    """One cold execution of a workload: inputs, outputs, checks."""

    def __init__(
        self, name: str, seed: int, scratch_dir: str, ledger: Ledger
    ) -> None:
        self.name = name
        self.shape = WORKLOADS[name]
        self.seed = seed
        self.scratch_dir = scratch_dir
        self.ledger = ledger
        #: the phase now running: "setup", "call" or "after"
        self.phase = "setup"
        #: the phase of every ``generate_logs`` call
        self.generate_calls: List[str] = []
        #: ``(config, selected_users, results)`` of every ``run_replay``
        self.captured: List[Any] = []
        self.log = None
        self.output: Any = None
        self._bundle_dir: Optional[str] = None
        self._telemetry = None
        self._flight = None

    @property
    def serve(self) -> bool:
        return isinstance(self.shape, ServeShape)

    # -- phases --------------------------------------------------------------

    def install(self) -> None:
        """Wrap the two calls the checks watch, once each.

        Every ``generate_logs`` call records the phase it ran in, so the
        run can prove the log was built once, in set-up; every
        ``run_replay`` call keeps its results, because ``daily_updates``
        returns only the halves' hit rates.  In a traced run each call is
        also a span (``logs.generate``, ``replay.static`` or
        ``replay.daily``).  Module functions are patched in the module
        that looks them up.
        """
        import repro.experiments.common as common
        from repro.experiments import hitrate

        generate = common.generate_logs
        run_replay = hitrate.run_replay
        ledger = self.ledger

        def generate_logs(*args, **kwargs):
            self.generate_calls.append(self.phase)
            with ledger.span("logs.generate"):
                return generate(*args, **kwargs)

        def replay_half(log, config, modes, selected_users=None):
            name = "replay.daily" if config.daily_updates else "replay.static"
            with ledger.span(name):
                results = run_replay(
                    log, config, modes=modes, selected_users=selected_users
                )
            self.captured.append((config, selected_users, results))
            return results

        common.generate_logs = generate_logs
        hitrate.run_replay = replay_half

    def setup(self) -> None:
        """Build every input the entry point consumes."""
        from repro.experiments.common import default_log

        self.log = default_log(seed=self.seed)
        if self.serve:
            self._setup_serve()

    def call(self) -> None:
        """The public entry point; the benchmark times exactly this."""
        if self.serve:
            self.output = self._call_serve()
        else:
            from repro.experiments import hitrate

            self.output = hitrate.daily_updates(
                users_per_class=self.shape.users_per_class,
                seed=self.seed,
                engine="vectorized",
            )

    def finish(self) -> None:
        """Close out the run after timing (flight recorder settlement)."""
        if self._flight is not None:
            self._flight.finalize()

    def cleanup(self) -> None:
        if self._bundle_dir is not None:
            shutil.rmtree(self._bundle_dir, ignore_errors=True)

    # -- serve ---------------------------------------------------------------

    def _setup_serve(self) -> None:
        from repro.obs.flight import FlightRecorder
        from repro.obs.triggers import TriggerConfig, TriggerEngine
        from repro.serve.telemetry import ServeTelemetry

        shape = self.shape
        self._bundle_dir = tempfile.mkdtemp(
            prefix="flight-", dir=self.scratch_dir
        )
        self._telemetry = ServeTelemetry()
        run_config = {
            "duration_s": shape.duration_s,
            "rate_multiplier": shape.rate,
            "max_devices": shape.max_devices,
            "edge_nodes": shape.edge_nodes,
        }
        self._flight = FlightRecorder(
            config=run_config,
            seed=self.seed,
            triggers=TriggerEngine(
                TriggerConfig(bundle_dir=self._bundle_dir)
            ),
        )
        self._flight.attach(self._telemetry)

    def _call_serve(self):
        from repro.edge.tier import EdgeTopology
        from repro.obs.registry import MetricsRegistry
        from repro.serve.harness import run_loadtest
        from repro.serve.loadgen import LoadGenConfig
        from repro.serve.server import ServeConfig

        shape = self.shape
        topology = (
            EdgeTopology(n_nodes=shape.edge_nodes)
            if shape.edge_nodes is not None
            else None
        )
        return run_loadtest(
            self.log,
            LoadGenConfig(
                duration_s=shape.duration_s,
                rate_multiplier=shape.rate,
                seed=self.seed,
                max_devices=shape.max_devices,
                n_regions=shape.edge_nodes,
            ),
            ServeConfig(),
            telemetry=self._telemetry,
            registry=MetricsRegistry(),
            edge_topology=topology,
        )

    # -- replay --------------------------------------------------------------

    def _replay_halves(self):
        from repro.sim.replay import CacheMode

        (static_cfg, users, static), (daily_cfg, _, daily) = self.captured
        return (
            users,
            static[CacheMode.FULL],
            daily[CacheMode.FULL],
            static_cfg,
            daily_cfg,
        )

    def replay_windows(self):
        """``(events, refresh_days)`` implied by the selected users'
        replay-month windows of the log."""
        from repro.logs.schema import MONTH_SECONDS

        users, _, _, _, config = self._replay_halves()
        t_start = config.replay_month * MONTH_SECONDS
        events = 0
        refresh_days = 0
        for uids in users.values():
            for uid in uids:
                window = self.log.for_user(uid).window(
                    t_start, t_start + MONTH_SECONDS
                )
                events += window.n_events
                if window.n_events:
                    # One refresh per day up to the last event's day,
                    # capped at the 30 mined daily contents.
                    last = float(window.timestamps.max())
                    refresh_days += (
                        min(int((last - t_start) // DAY_SECONDS), 29) + 1
                    )
        return events, refresh_days

    # -- outputs -------------------------------------------------------------

    def check(self) -> List[str]:
        """Output checks; each returned string is one failure."""
        failures = []
        if self.generate_calls != ["setup"]:
            failures.append(
                f"generate_logs ran {len(self.generate_calls)} times in "
                f"phases {self.generate_calls}; expected once, during setup"
            )
        from repro.obs import trace as obs_trace

        if obs_trace.get_tracer().enabled:
            failures.append("repro.obs.trace was enabled")
        if self.serve:
            failures.extend(self._check_serve())
        else:
            failures.extend(self._check_replay())
        return failures

    def _check_serve(self) -> List[str]:
        report, workload = self.output
        failures = []
        if report.requests != report.completed + report.shed:
            failures.append(
                f"requests {report.requests} != completed "
                f"{report.completed} + shed {report.shed}"
            )
        if report.requests != workload.n_requests:
            failures.append(
                f"{workload.n_requests} scheduled but "
                f"{report.requests} answered"
            )
        if report.energy_conserved is not True:
            failures.append(
                "energy ledger not conserved: error "
                f"{report.conservation_error_j!r} J"
            )
        if self.shape.edge_nodes is not None:
            for unit, err in (
                ("s", report.hop_resum_error_s),
                ("J", report.hop_resum_error_j),
            ):
                if not err <= RESUM_TOL:
                    failures.append(
                        f"hop re-sum error {err!r} {unit} > {RESUM_TOL}"
                    )
        dumped = list(self._flight.triggers.dumped) + os.listdir(
            self._bundle_dir
        )
        if dumped:
            failures.append(f"flight bundle dumped: {dumped}")
        return failures

    def _check_replay(self) -> List[str]:
        if len(self.captured) != 2:
            return [f"expected 2 replays, saw {len(self.captured)}"]
        users, static, daily, static_cfg, daily_cfg = self._replay_halves()
        failures = []
        if static_cfg.daily_updates or not daily_cfg.daily_updates:
            failures.append("replay halves are not static then daily")
        roster = [(u.user_id, u.user_class) for u in static.users]
        if roster != [(u.user_id, u.user_class) for u in daily.users]:
            failures.append("halves replayed different users")
        selected = sorted(uid for uids in users.values() for uid in uids)
        if sorted(uid for uid, _ in roster) != selected:
            failures.append("replayed users differ from the selection")
        per_user = [u.metrics.count for u in static.users]
        if per_user != [u.metrics.count for u in daily.users]:
            failures.append("halves replayed different event counts")
        expected, _ = self.replay_windows()
        if sum(per_user) != expected:
            failures.append(
                f"replayed {sum(per_user)} events per half; the users' "
                f"replay-month windows hold {expected}"
            )
        if self.output["daily_update_hit_rate"] != daily.overall_hit_rate():
            failures.append("reported hit rate differs from the replay")
        return failures

    def operations(self) -> int:
        """Operations attempted: requests submitted, or events replayed
        by both halves."""
        if self.serve:
            return self.output[0].requests
        _, static, daily, _, _ = self._replay_halves()
        return sum(u.metrics.count for u in static.users + daily.users)

    def shed(self) -> int:
        return self.output[0].shed if self.serve else 0

    def flight_seen(self) -> Dict[str, int]:
        """Records the flight recorder saw, per ring."""
        return dict(self._flight.seen) if self._flight is not None else {}

    def modelled(self) -> Dict[str, Any]:
        """Outputs fixed by the seed: identical in every cold run."""
        if self.serve:
            report, workload = self.output
            return {
                "ops": report.completed,
                "hit_rate": report.hit_rate,
                "sojourn_p50_s": report.sojourn_p50_s,
                "sojourn_p99_s": report.sojourn_p99_s,
                "sojourn_n": report.completed,
                "energy_j_per_query": report.energy_j_per_query,
                "shed_rate": report.shed_rate,
                "devices": workload.n_devices,
                "requests": report.requests,
            }
        _, static, daily, _, _ = self._replay_halves()
        outcomes = [o for u in daily.users for o in u.metrics.outcomes]
        latencies = sorted(o.latency_s for o in outcomes)
        return {
            "ops": self.operations(),
            "hit_rate": self.output["daily_update_hit_rate"],
            "static_hit_rate": self.output["static_hit_rate"],
            "sojourn_p50_s": percentile(latencies, 50),
            "sojourn_p99_s": percentile(latencies, 99),
            "sojourn_n": len(latencies),
            "energy_j_per_query": math.fsum(o.energy_j for o in outcomes)
            / len(outcomes),
            "shed_rate": 0.0,
            "users": len(daily.users),
        }
