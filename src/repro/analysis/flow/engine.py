"""The flow engine: summaries -> program -> fixpoints -> findings.

One :meth:`FlowEngine.run` is one whole-program pass over a file set.
With a warm cache it re-parses nothing and re-evaluates rules only for
files whose own digest *or* any digest in their transitive call-graph
dependency closure changed — ``stats["reanalyzed"]`` is the honest
count CI asserts on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.analysis.findings import Finding
from repro.analysis.flow.cache import FlowCache, digest_text
from repro.analysis.flow.callgraph import Program, build_program
from repro.analysis.flow.rules import (
    FLOW_RULES,
    FlowAnalyses,
    compute_analyses,
)
from repro.analysis.flow.summaries import FileSummary, summarize_source

__all__ = ["FlowEngine", "FlowReport", "FlowResult"]


@dataclass
class FlowReport:
    """Flow findings for one file (mirrors engine.FileReport)."""

    path: str
    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)


@dataclass
class FlowResult:
    reports: Dict[str, FlowReport]
    program: Program
    stats: Dict[str, object]

    def dependents_of(self, paths: Iterable[str]) -> Set[str]:
        """Files whose findings depend (transitively) on any of
        ``paths`` — the reverse call-graph dependent set ``--changed``
        must re-lint alongside the edited files themselves."""
        target_modules = {
            self.program.summaries[p].module
            for p in paths if p in self.program.summaries
        }
        out: Set[str] = set()
        closures: Dict[str, Set[str]] = self.stats["_module_closures"]
        for path, modules in closures.items():
            if modules & target_modules:
                out.add(path)
        return out


class FlowEngine:
    """Run the whole-program layer over a file set.

    Args:
        select/ignore: rule ids/names, pre-validated by the CLI.
        cache: a loaded :class:`FlowCache`, or ``None`` to disable
            caching entirely (every file re-analyzes).
    """

    def __init__(
        self,
        select: Optional[Iterable[str]] = None,
        ignore: Optional[Iterable[str]] = None,
        cache: Optional[FlowCache] = None,
    ) -> None:
        rules = list(FLOW_RULES)
        if select is not None:
            wanted = set(select)
            rules = [
                r for r in rules if r.id in wanted or r.name in wanted
            ]
        if ignore is not None:
            dropped = set(ignore)
            rules = [
                r for r in rules
                if r.id not in dropped and r.name not in dropped
            ]
        self.rules = rules
        self.cache = cache

    # -- pipeline -----------------------------------------------------------

    def run(self, files: Sequence[str]) -> FlowResult:
        started = time.perf_counter()
        rule_ids = sorted(r.id for r in self.rules)
        summaries: Dict[str, FileSummary] = {}
        sources_read: Dict[str, str] = {}
        summaries_reused = summaries_computed = 0

        for path in sorted(set(files)):
            try:
                with open(path, encoding="utf-8") as fh:
                    text = fh.read()
            except (OSError, UnicodeDecodeError):
                continue  # unreadable files are REP000's problem
            digest = digest_text(text)
            cached = (
                self.cache.summary_for(path, digest)
                if self.cache is not None else None
            )
            if cached is not None:
                summaries[path] = cached
                summaries_reused += 1
            else:
                summaries[path] = summarize_source(path, text, digest)
                sources_read[path] = text
                summaries_computed += 1

        program = build_program(summaries.values())
        module_closures = self._module_closures(program)
        analyses = compute_analyses(program)

        reports: Dict[str, FlowReport] = {}
        reanalyzed: List[str] = []
        findings_reused = 0
        line_cache: Dict[str, List[str]] = {}

        def snippet_for(path: str):
            def snippet(lineno: int) -> str:
                lines = line_cache.get(path)
                if lines is None:
                    text = sources_read.get(path)
                    if text is None:
                        try:
                            with open(path, encoding="utf-8") as fh:
                                text = fh.read()
                        except OSError:
                            text = ""
                    lines = text.splitlines()
                    line_cache[path] = lines
                if 1 <= lineno <= len(lines):
                    return lines[lineno - 1].strip()
                return ""
            return snippet

        for path in sorted(summaries):
            summary = summaries[path]
            module_deps = self._dep_digests(
                program, module_closures[path]
            )
            if (
                self.cache is not None
                and self.cache.findings_valid(
                    path, summary.digest, module_deps, rule_ids
                )
            ):
                cached_f = self.cache.findings_for(path)
                if cached_f is not None:
                    reports[path] = FlowReport(
                        path=path,
                        findings=cached_f["findings"],
                        suppressed=cached_f["suppressed"],
                    )
                    findings_reused += 1
                    continue
            report = self._evaluate(
                program, analyses, summary, snippet_for(path)
            )
            reports[path] = report
            reanalyzed.append(path)
            if self.cache is not None:
                self.cache.store(
                    summary, module_deps, rule_ids,
                    report.findings, report.suppressed,
                )

        if self.cache is not None:
            self.cache.prune(summaries.keys())
            self.cache.save()

        stats: Dict[str, object] = {
            "files": len(summaries),
            "rules": rule_ids,
            "summaries_reused": summaries_reused,
            "summaries_computed": summaries_computed,
            "findings_reused": findings_reused,
            "reanalyzed": len(reanalyzed),
            "reanalyzed_files": reanalyzed,
            "graph_nodes": len(program.graph.nodes()),
            "graph_edges": sum(
                len(v) for v in program.graph.edges.values()
            ),
            "tainted_functions": len(analyses.taint),
            "wall_s": round(time.perf_counter() - started, 4),
            "_module_closures": module_closures,
        }
        return FlowResult(reports=reports, program=program, stats=stats)

    # -- helpers ------------------------------------------------------------

    def _evaluate(
        self,
        program: Program,
        analyses: FlowAnalyses,
        summary: FileSummary,
        snippet,
    ) -> FlowReport:
        report = FlowReport(path=summary.path)
        for rule_cls in self.rules:
            rule = rule_cls(program, analyses)
            for finding in rule.findings_for_file(summary, snippet):
                if summary.is_suppressed(finding.rule, finding.line):
                    report.suppressed.append(finding)
                else:
                    report.findings.append(finding)
        report.findings.sort(key=lambda f: (f.line, f.col, f.rule))
        return report

    @staticmethod
    def _module_closures(program: Program) -> Dict[str, Set[str]]:
        """Per file, the transitive set of referenced foreign modules."""
        direct: Dict[str, Set[str]] = {
            path: set(summary.referenced_modules)
            for path, summary in program.summaries.items()
        }
        closure = {path: set(mods) for path, mods in direct.items()}
        changed = True
        while changed:
            changed = False
            for path in closure:
                additions: Set[str] = set()
                for mod in closure[path]:
                    backing = program.symbols.modules.get(mod)
                    if backing is not None and backing in closure:
                        additions |= closure[backing]
                additions.discard(program.summaries[path].module)
                if not additions <= closure[path]:
                    closure[path] |= additions
                    changed = True
        return closure

    @staticmethod
    def _dep_digests(
        program: Program, modules: Set[str]
    ) -> Dict[str, Optional[str]]:
        out: Dict[str, Optional[str]] = {}
        for mod in modules:
            backing = program.symbols.modules.get(mod)
            if backing is None:
                out[mod] = None
            else:
                out[mod] = program.summaries[backing].digest
        return out
