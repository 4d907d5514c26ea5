"""The whole-program flow rules: REP010, REP011, REP012.

Unlike the per-file AST rules these evaluate against a linked
:class:`~repro.analysis.flow.callgraph.Program` plus the fixpoints in
:mod:`~repro.analysis.flow.taint` — but they emit the same
:class:`~repro.analysis.findings.Finding` objects, attributed to the
file that must change, so noqa/baseline/SARIF treat them uniformly.
Findings for one file depend only on that file's summary plus the
global analyses, which is what lets the incremental cache reuse them
per file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.analysis.findings import Finding, Severity
from repro.analysis.flow.callgraph import Program
from repro.analysis.flow.summaries import Event, FileSummary, FunctionSummary
from repro.analysis.flow.taint import (
    TaintInfo,
    coroutine_factories,
    module_package,
    propagate_taint,
    transitive_self_writes,
)

__all__ = [
    "FLOW_RULES",
    "FLOW_RULES_BY_ID",
    "FlowAnalyses",
    "FlowRule",
    "InterleavingRaceRule",
    "TransitiveNondeterminismRule",
    "UnawaitedCoroutineRule",
    "compute_analyses",
]

#: Packages whose entry points must stay deterministic (REP010 scope).
ENTRY_PACKAGES = {"sim", "serve", "logs", "edge"}


@dataclass
class FlowAnalyses:
    """The precomputed global fixpoints the rules share."""

    taint: Dict[str, TaintInfo]
    factories: Set[str]
    self_writes: Dict[str, Set[str]]


def compute_analyses(program: Program) -> FlowAnalyses:
    return FlowAnalyses(
        taint=propagate_taint(program),
        factories=coroutine_factories(program),
        self_writes=transitive_self_writes(program),
    )


def _norm_chain(chain: str) -> str:
    """Chain identity for read/write matching: subscript hops collapse
    onto the container (``self.d[·]`` and ``self.d`` are one state)."""
    return chain.replace("[·]", "")


def _looks_like_lock(chain: str) -> bool:
    tail = _norm_chain(chain).rsplit(".", 1)[-1].lower()
    return "lock" in tail or "mutex" in tail or "sem" in tail


class FlowRule:
    """One whole-program rule; stateless between files."""

    id: str = "REP0XX"
    name: str = "abstract-flow-rule"
    severity: Severity = Severity.ERROR

    def __init__(self, program: Program, analyses: FlowAnalyses) -> None:
        self.program = program
        self.analyses = analyses

    def findings_for_file(
        self,
        summary: FileSummary,
        snippet: Callable[[int], str],
    ) -> List[Finding]:
        raise NotImplementedError

    def _finding(
        self,
        summary: FileSummary,
        line: int,
        col: int,
        message: str,
        snippet: Callable[[int], str],
        severity: Optional[Severity] = None,
    ) -> Finding:
        return Finding(
            rule=self.id,
            severity=severity or self.severity,
            path=summary.path,
            line=line,
            col=col,
            message=message,
            snippet=snippet(line),
        )


class TransitiveNondeterminismRule(FlowRule):
    """REP010: a deterministic-scope function calls, through any number
    of hops, something that reads the wall clock / unseeded RNG /
    ``os.environ`` / set iteration order.

    Reported at the *boundary* call site — the call in ``sim``/``serve``/
    ``logs``/``edge`` whose callee lives outside those packages and is
    transitively tainted.  Direct in-scope sources are REP001/REP002/
    REP003's turf, except ambient-environment reads which no per-file
    rule owns: those are reported here with a one-hop chain.
    """

    id = "REP010"
    name = "transitive-nondeterminism"
    severity = Severity.ERROR

    def findings_for_file(self, summary, snippet):
        findings: List[Finding] = []
        taint = self.analyses.taint
        for qual in sorted(summary.functions):
            fn = summary.functions[qual]
            pkg = module_package(fn.module)
            if pkg not in ENTRY_PACKAGES:
                continue
            # Direct ambient-environment reads (no other rule owns them).
            for source in fn.sources:
                if source.kind == "environ":
                    findings.append(self._finding(
                        summary, source.line, 0,
                        f"`{source.detail}` read in `{pkg}/` — results "
                        "must be a pure function of (log, seed, config); "
                        "pass configuration in explicitly",
                        snippet,
                    ))
            reported: Set[str] = set()
            for ref in fn.calls:
                callee = self.program.symbols.resolve_call(fn, ref)
                if callee is None or callee.qualname in reported:
                    continue
                callee_pkg = module_package(callee.module)
                if callee_pkg in ENTRY_PACKAGES:
                    continue  # flagged at its own boundary call site
                info = taint.get(callee.qualname)
                if info is None:
                    continue
                reported.add(callee.qualname)
                chain = " -> ".join((qual,) + info.chain)
                detail = info.source.detail
                severity = (
                    Severity.WARNING if info.kind == "setiter"
                    else Severity.ERROR
                )
                findings.append(self._finding(
                    summary, ref.line, ref.col,
                    f"call into `{callee.qualname}()` is transitively "
                    f"nondeterministic via {chain} -> {detail} — thread "
                    "a SimClock / seeded Generator / explicit config "
                    "through instead",
                    snippet, severity,
                ))
        return findings


class InterleavingRaceRule(FlowRule):
    """REP011: asyncio interleaving race — shared state (``self.*`` or
    ``nonlocal``) read before an ``await`` and written after it in the
    same function, or written by a callee reachable across the await,
    without one ``async with`` lock span covering both accesses.

    Between the stale read and the late write every other task gets to
    run; under :class:`~repro.serve.vclock.VirtualTimeLoop` the
    interleaving is deterministic but still *a different order than the
    serial one* — exactly what the equivalence gates cannot tolerate.
    """

    id = "REP011"
    name = "await-interleaving-race"
    severity = Severity.ERROR

    def findings_for_file(self, summary, snippet):
        findings: List[Finding] = []
        for qual in sorted(summary.functions):
            fn = summary.functions[qual]
            if not fn.is_async or not fn.events:
                continue
            findings.extend(self._check_function(summary, fn, snippet))
        return findings

    def _check_function(
        self, summary: FileSummary, fn: FunctionSummary,
        snippet: Callable[[int], str],
    ) -> List[Finding]:
        reads: Dict[str, List[Event]] = {}
        writes: Dict[str, List[Event]] = {}
        awaits: List[Event] = []
        display: Dict[str, str] = {}
        for event in fn.events:
            if event.op == "await":
                awaits.append(event)
                continue
            key = _norm_chain(event.chain)
            if _looks_like_lock(key):
                continue
            display.setdefault(key, event.chain)
            (reads if event.op == "read" else writes).setdefault(
                key, []
            ).append(event)
        if not awaits:
            return []
        # Interprocedural: an await of self.m() that transitively
        # writes self.X acts as a write event on self.X at the await.
        for event in awaits:
            ref = event.ref
            if ref is None or ref.kind != "self" or fn.cls is None:
                continue
            callee = self.program.symbols.resolve_call(fn, ref)
            if callee is None:
                continue
            for attr in sorted(
                self.analyses.self_writes.get(callee.qualname, ())
            ):
                key = f"self.{attr}"
                if _looks_like_lock(key):
                    continue
                display.setdefault(key, key)
                writes.setdefault(key, []).append(Event(
                    "write", event.pos, event.line, key, event.locks,
                    regions=event.regions,
                ))
        out: List[Finding] = []
        for key in sorted(set(reads) & set(writes)):
            hit = self._race(reads[key], writes[key], awaits)
            if hit is None:
                continue
            read, awaited, write = hit
            via = (
                "" if write.line != awaited.line
                else " (via the awaited callee)"
            )
            out.append(self._finding(
                summary, write.line, 0,
                f"`{display[key]}` is read (line {read.line}) before "
                f"`await` (line {awaited.line}) and written"
                f"{via} after it — another task can interleave at the "
                "await and this write clobbers state computed from a "
                "stale read; cover both accesses with one "
                "`async with lock:` span or re-read after the await",
                snippet,
            ))
        return out

    @staticmethod
    def _race(
        reads: List[Event], writes: List[Event], awaits: List[Event]
    ) -> Optional[Tuple[Event, Event, Event]]:
        for write in writes:
            if write.rmw:
                # AugAssign rereads its operand in the same statement —
                # the stored value derives from fresh state, not the
                # pre-await read.
                continue
            wregions = set(write.regions)
            for awaited in awaits:
                if awaited.pos > write.pos:
                    continue
                if not set(awaited.regions) <= wregions:
                    # The await sits inside a branch that returns or
                    # raises: no execution path passes through it and
                    # then reaches this write.
                    continue
                for read in reads:
                    if read.pos >= awaited.pos:
                        continue
                    if not set(read.regions) <= wregions:
                        continue  # read only happens on an exited path
                    if set(read.locks) & set(write.locks):
                        continue  # one lock span covers both
                    if any(
                        read.pos < w.pos < awaited.pos
                        and set(w.regions) <= set(awaited.regions)
                        for w in writes
                    ):
                        # The function already wrote the chain between
                        # the read and the await: the check-then-act
                        # window closed before suspension, and the late
                        # write continues an owned protocol (register /
                        # deregister), not a stale-read store.
                        continue
                    return read, awaited, write
        return None


class UnawaitedCoroutineRule(FlowRule):
    """REP012: a coroutine call whose result escapes unawaited — the
    result of calling an ``async def`` (or, interprocedurally, a
    function that *returns* a bare coroutine) is discarded as a bare
    expression statement or parked in a never-read local.

    The coroutine never runs; exceptions inside it are silently lost.
    Await it, hand it to ``asyncio.gather``/``wait``, or retain it via
    ``create_task`` (REP005 then checks the task is kept).
    """

    id = "REP012"
    name = "escaping-unawaited-coroutine"
    severity = Severity.ERROR

    def findings_for_file(self, summary, snippet):
        findings: List[Finding] = []
        factories = self.analyses.factories
        for qual in sorted(summary.functions):
            fn = summary.functions[qual]
            for use in fn.call_uses:
                if use.usage not in ("discarded", "dead"):
                    continue
                callee = self.program.symbols.resolve_call(fn, use.ref)
                if callee is None:
                    continue
                if not (callee.is_async or callee.qualname in factories):
                    continue
                how = (
                    "discarded as a bare statement"
                    if use.usage == "discarded"
                    else "assigned to a local that is never used"
                )
                kind = (
                    "coroutine" if callee.is_async
                    else "bare coroutine (returned unawaited by the callee)"
                )
                findings.append(self._finding(
                    summary, use.ref.line, use.ref.col,
                    f"{kind} from `{callee.qualname}()` is {how} — it "
                    "never runs and its exceptions are lost; `await` it, "
                    "gather it, or retain it via `create_task`",
                    snippet,
                ))
        return findings


FLOW_RULES = [
    TransitiveNondeterminismRule,   # REP010
    InterleavingRaceRule,           # REP011
    UnawaitedCoroutineRule,         # REP012
]

FLOW_RULES_BY_ID = {rule.id: rule for rule in FLOW_RULES}


def _register() -> None:
    """Fold REP010-REP012 into the shared display registry so stats
    tables, SARIF metadata and ``--select`` validation see one uniform
    id space (imported here, not from the rules package, to avoid an
    import cycle through the summaries' source tables)."""
    from repro.analysis.rules import RULES_BY_ID

    for rule in FLOW_RULES:
        RULES_BY_ID.setdefault(rule.id, rule)


_register()
