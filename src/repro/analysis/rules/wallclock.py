"""REP001: no wall-clock reads in the simulation/serving model code.

Every replay and serve result must be a pure function of (log, seed,
config).  A single ``time.time()`` in ``sim/`` silently turns the
1e-9 differential-equivalence gates (per-event==batch replay,
serve==replay accounting) into flaky tests.  Model code reads time
from :class:`repro.sim.clock.SimClock` or ``loop.time()`` — the only
modules allowed to touch the host clock are the clock abstractions
themselves.

``time.perf_counter`` is deliberately *not* banned: it measures how
long the host took (span timings, wall times in run manifests),
never what simulated time it is, so it cannot leak into results.
"""

from __future__ import annotations

import ast

from repro.analysis.context import FileContext
from repro.analysis.engine import Rule
from repro.analysis.findings import Severity

__all__ = ["WallClockRule"]

#: Packages whose results must be wall-clock free.
SCOPED_PACKAGES = {"sim", "serve", "logs", "storage"}

#: Clock-abstraction modules: the one place host time may be read.
WHITELISTED_FILES = {("sim", "clock.py"), ("serve", "vclock.py")}

#: Canonical dotted names whose *call* reads the wall clock.
BANNED_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.localtime",
    "time.gmtime",
    "time.strftime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}


class WallClockRule(Rule):
    id = "REP001"
    name = "no-wall-clock"
    severity = Severity.ERROR

    @classmethod
    def applies_to(cls, ctx: FileContext) -> bool:
        if not ctx.in_packages(SCOPED_PACKAGES):
            return False
        return (ctx.subpackage, ctx.filename) not in WHITELISTED_FILES

    def visit_Call(self, node: ast.Call) -> None:
        resolved = self.ctx.imports.resolve(node.func)
        if resolved in BANNED_CALLS:
            self.report(
                node,
                f"wall-clock read `{resolved}()` in `{self.ctx.subpackage}/` "
                "— model time must come from SimClock / loop.time() so "
                "results stay a pure function of (log, seed, config)",
            )
