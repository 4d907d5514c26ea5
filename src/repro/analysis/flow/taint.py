"""Interprocedural fixpoints over the call graph.

Three worklist analyses, all deterministic by construction (sorted
worklists, shortest-then-lexicographic chain tie-breaks):

* :func:`propagate_taint` — which functions transitively reach a
  nondeterminism source, and by what call chain (REP010's message).
* :func:`coroutine_factories` — sync functions whose return value is a
  bare coroutine (``return fetch()`` with ``fetch`` async), so callers
  discarding their result leak an unawaited coroutine (REP012).
* :func:`transitive_self_writes` — per method, the ``self.*`` attrs
  written by the method or anything it reaches through same-class
  ``self.m()`` calls (REP011's callee-across-the-await half).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.flow.callgraph import Program
from repro.analysis.flow.summaries import Source

__all__ = [
    "TaintInfo",
    "coroutine_factories",
    "propagate_taint",
    "transitive_self_writes",
]


@dataclass
class TaintInfo:
    """Why a function is transitively nondeterministic.

    ``chain`` lists function qualnames from this function down to the
    one containing the source; ``source`` is the source itself.
    """

    chain: Tuple[str, ...]
    source: Source

    @property
    def kind(self) -> str:
        return self.source.kind

    def describe(self) -> str:
        hops = " -> ".join(self.chain)
        return f"{hops} -> {self.source.detail}"


def _best_source(sources: List[Source]) -> Source:
    """Deterministic representative source: hard kinds first, then
    source order."""
    hard = [s for s in sources if s.kind != "setiter"]
    pool = hard or sources
    return min(pool, key=lambda s: (s.line, s.kind, s.detail))


def propagate_taint(program: Program) -> Dict[str, TaintInfo]:
    """Dijkstra-style propagation from direct sources up the reverse
    call graph; the recorded chain is the shortest (then
    lexicographically smallest) path to *a* source.

    Functions whose only sources are ``setiter`` stay distinguishable:
    the :class:`TaintInfo` carries the source kind, and the rule maps
    it to a warning rather than an error.
    """
    best: Dict[str, TaintInfo] = {}
    heap: List[Tuple[int, Tuple[str, ...], str]] = []
    for qual in sorted(program.symbols.functions):
        fn = program.symbols.functions[qual]
        if fn.sources:
            source = _best_source(fn.sources)
            info = TaintInfo(chain=(qual,), source=source)
            best[qual] = info
            heapq.heappush(heap, (1, (qual,), qual))
    while heap:
        length, chain, qual = heapq.heappop(heap)
        current = best.get(qual)
        if current is None or current.chain != chain:
            continue  # superseded by a better path
        for caller in program.graph.callers(qual):
            cand_chain = (caller,) + chain
            existing = best.get(caller)
            if existing is not None and (
                (len(existing.chain), existing.chain)
                <= (len(cand_chain), cand_chain)
            ):
                continue
            best[caller] = TaintInfo(
                chain=cand_chain, source=best[qual].source
            )
            heapq.heappush(heap, (len(cand_chain), cand_chain, caller))
    return best


def coroutine_factories(program: Program) -> Set[str]:
    """Functions returning a bare (unawaited) coroutine, to fixpoint.

    Seed: any function with a ``returned`` call-use resolving to an
    ``async def``.  Iterate: returning a call to a known factory also
    makes a factory.  Yielded coroutines count too (generators of
    coroutines handed to a gather are fine — the *call sites* decide).
    """
    factories: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for qual in sorted(program.symbols.functions):
            if qual in factories:
                continue
            fn = program.symbols.functions[qual]
            for use in fn.call_uses:
                if use.usage not in ("returned", "yielded"):
                    continue
                callee = program.symbols.resolve_call(fn, use.ref)
                if callee is None:
                    continue
                if callee.is_async or callee.qualname in factories:
                    factories.add(qual)
                    changed = True
                    break
    return factories


def transitive_self_writes(program: Program) -> Dict[str, Set[str]]:
    """Method qualname -> ``self.*`` attrs written transitively.

    Only ``self.m()`` edges within the same class (and its resolvable
    bases) propagate — a write through another object's method is that
    object's business, not this receiver's.
    """
    writes: Dict[str, Set[str]] = {}
    methods = [
        (qual, fn) for qual, fn in sorted(
            program.symbols.functions.items()
        ) if fn.cls is not None
    ]
    for qual, fn in methods:
        writes[qual] = set(fn.writes_self_attrs)
    changed = True
    while changed:
        changed = False
        for qual, fn in methods:
            for ref in fn.calls:
                if ref.kind != "self":
                    continue
                callee = program.symbols.resolve_call(fn, ref)
                if callee is None or callee.cls is None:
                    continue
                extra = writes.get(callee.qualname, set())
                if not extra <= writes[qual]:
                    writes[qual] |= extra
                    changed = True
    return writes


def module_package(module: str) -> Optional[str]:
    """``repro.sim.replay`` -> ``sim``; top-level ``repro.cli`` ->
    ``cli``; non-repro modules -> ``None``."""
    parts = module.split(".")
    if parts[0] != "repro":
        return None
    if len(parts) == 1:
        return "__init__"
    return parts[1]
