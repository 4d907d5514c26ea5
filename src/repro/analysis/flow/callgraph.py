"""Project symbol table and call graph over per-file summaries.

Resolution is best-effort and *syntactic*, like everything in
``repro.analysis``: a call resolves to a node iff the summaries define
a matching function — module functions through the ImportMap's dotted
candidates, methods through the receiver's class (``self.m()``),
declared attribute types (``self.engine.lookup()``) or ctor-typed
locals, walking base classes when the class itself does not define the
method.  Unresolved calls simply contribute no edge; the flow rules
never guess.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.flow.summaries import (
    CallRef,
    ClassInfo,
    FileSummary,
    FunctionSummary,
)

__all__ = ["CallGraph", "Program", "SymbolTable", "build_program"]


class SymbolTable:
    """Qualified-name lookup over every summarized file."""

    def __init__(self, summaries: Iterable[FileSummary]) -> None:
        #: function qualname -> summary
        self.functions: Dict[str, FunctionSummary] = {}
        #: class qualname -> info
        self.classes: Dict[str, ClassInfo] = {}
        #: module -> file path
        self.modules: Dict[str, str] = {}
        #: class local name ("C") -> [qualnames] for base resolution
        self._class_by_name: Dict[str, List[str]] = {}
        for summary in sorted(summaries, key=lambda s: s.path):
            self.modules.setdefault(summary.module, summary.path)
            for qual, fn in summary.functions.items():
                self.functions.setdefault(qual, fn)
            for qual, cls in summary.classes.items():
                self.classes.setdefault(qual, cls)
                self._class_by_name.setdefault(
                    qual.rsplit(".", 1)[-1], []
                ).append(qual)

    # -- class hierarchy ----------------------------------------------------

    def resolve_class(self, dotted: str) -> Optional[ClassInfo]:
        """A dotted candidate -> known class, trying the name as given
        then (for ``from m import C`` re-exports) by trailing name."""
        if dotted in self.classes:
            return self.classes[dotted]
        tail = dotted.rsplit(".", 1)[-1]
        candidates = sorted(self._class_by_name.get(tail, ()))
        for qual in candidates:
            # Accept only if the module prefix is a prefix match or the
            # candidate is unambiguous.
            if len(candidates) == 1 or qual.endswith("." + dotted):
                return self.classes[qual]
        return None

    def method_on(self, cls: ClassInfo,
                  method: str) -> Optional[FunctionSummary]:
        """Find ``method`` on ``cls`` or its (resolvable) bases, DFS."""
        seen: Set[str] = set()
        stack = [cls]
        while stack:
            cur = stack.pop(0)
            if cur.qualname in seen:
                continue
            seen.add(cur.qualname)
            fn = self.functions.get(f"{cur.qualname}.{method}")
            if fn is not None:
                return fn
            for base in cur.bases:
                resolved = self.resolve_class(base)
                if resolved is not None:
                    stack.append(resolved)
        return None

    # -- call resolution ----------------------------------------------------

    def resolve_call(
        self, caller: FunctionSummary, ref: CallRef
    ) -> Optional[FunctionSummary]:
        if ref.kind == "self":
            if caller.cls is None:
                return None
            cls = self.classes.get(caller.cls)
            if cls is None:
                return None
            return self.method_on(cls, ref.method or "")
        if ref.kind == "selfattr":
            if caller.cls is None:
                return None
            cls = self.classes.get(caller.cls)
            if cls is None:
                return None
            dotted = cls.attr_types.get(ref.attr or "")
            if dotted is None:
                return None
            target_cls = self.resolve_class(dotted)
            if target_cls is None:
                return None
            return self.method_on(target_cls, ref.method or "")
        if ref.kind == "dotted" and ref.target:
            for candidate in (
                ref.target,
                # Unimported names resolve within the caller's own
                # module: ``helper()`` in repro.core.util is
                # ``repro.core.util.helper``.
                f"{caller.module}.{ref.target}",
            ):
                fn = self.functions.get(candidate)
                if fn is not None:
                    return fn
                # ``Class.method`` through an imported (or local)
                # class: split the candidate into (class, method).
                if "." in candidate:
                    head, method = candidate.rsplit(".", 1)
                    cls = self.resolve_class(head)
                    if cls is not None:
                        resolved = self.method_on(cls, method)
                        if resolved is not None:
                            return resolved
        return None


@dataclass
class CallGraph:
    """Forward and reverse edges between resolved function qualnames."""

    #: caller -> sorted callee set
    edges: Dict[str, List[str]] = field(default_factory=dict)
    #: callee -> sorted caller set
    redges: Dict[str, List[str]] = field(default_factory=dict)
    #: (caller, callee) -> first call-site line
    sites: Dict[Tuple[str, str], int] = field(default_factory=dict)

    def add(self, caller: str, callee: str, line: int) -> None:
        self.edges.setdefault(caller, [])
        if callee not in self.edges[caller]:
            self.edges[caller].append(callee)
        self.redges.setdefault(callee, [])
        if caller not in self.redges[callee]:
            self.redges[callee].append(caller)
        key = (caller, callee)
        if key not in self.sites or line < self.sites[key]:
            self.sites[key] = line

    def finalize(self) -> None:
        for mapping in (self.edges, self.redges):
            for key in mapping:
                mapping[key] = sorted(mapping[key])

    def callees(self, qual: str) -> List[str]:
        return self.edges.get(qual, [])

    def callers(self, qual: str) -> List[str]:
        return self.redges.get(qual, [])

    def nodes(self) -> List[str]:
        return sorted(set(self.edges) | set(self.redges))


@dataclass
class Program:
    """Everything the flow rules see: table + graph + file summaries."""

    symbols: SymbolTable
    graph: CallGraph
    summaries: Dict[str, FileSummary]  # path -> summary


def build_program(summaries: Iterable[FileSummary]) -> Program:
    """Link summaries into a :class:`Program` (symbols + call graph)."""
    by_path = {s.path: s for s in summaries}
    table = SymbolTable(by_path.values())
    graph = CallGraph()
    for path in sorted(by_path):
        summary = by_path[path]
        for qual in sorted(summary.functions):
            fn = summary.functions[qual]
            for ref in fn.calls:
                callee = table.resolve_call(fn, ref)
                if callee is not None and callee.qualname != fn.qualname:
                    graph.add(fn.qualname, callee.qualname, ref.line)
    graph.finalize()
    return Program(symbols=table, graph=graph, summaries=by_path)
