"""REP003: no set iteration feeding order-sensitive accumulation.

Float addition is not associative: ``sum`` over a ``set`` (whose
iteration order depends on hash seeding and insertion history) can give
different last-bit results run to run — exactly the kind of drift the
repo's 1e-9 differential-equivalence gates (per-event vs batch replay,
serve vs replay) exist to catch.  Accumulating into a list from a set
loop has the same hazard one step removed: the list *looks* ordered but
its order is arbitrary.

The fix is one word: ``sorted(...)`` the set before folding.

This is a heuristic (sets reached through attributes or call results
are invisible), so its severity is *warning*: reported always, fatal
only under ``--strict``.
"""

from __future__ import annotations

import ast
from typing import Set

from repro.analysis.engine import Rule, walk_in_order
from repro.analysis.findings import Severity

__all__ = ["SetOrderRule"]

#: ``x.union(y)``-style methods whose result is a set.
SET_METHODS = {"union", "intersection", "difference", "symmetric_difference"}

#: list-building mutators that freeze an ordering.
ORDERED_APPENDERS = {"append", "extend", "insert"}


class SetOrderRule(Rule):
    id = "REP003"
    name = "set-order-accumulation"
    severity = Severity.WARNING

    def __init__(self, ctx) -> None:
        super().__init__(ctx)
        # Pre-pass: names ever bound to a set expression anywhere in the
        # file.  Scope-blind on purpose — cheap, and rebinding a name
        # from set to list between uses is its own readability bug.
        self.set_names: Set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign) and self._is_set_expr(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.set_names.add(target.id)

    # -- set-typed expression heuristic -------------------------------------

    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in getattr(self, "set_names", ())
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
            if (
                isinstance(func, ast.Attribute)
                and func.attr in SET_METHODS
                and self._is_set_expr(func.value)
            ):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)
        ):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        return False

    def _comprehension_over_set(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.GeneratorExp, ast.ListComp)):
            return any(self._is_set_expr(gen.iter) for gen in node.generators)
        return False

    # -- visitors -----------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        resolved = self.ctx.imports.resolve(node.func)
        if resolved not in ("sum", "math.fsum") or not node.args:
            return
        arg = node.args[0]
        if self._is_set_expr(arg) or self._comprehension_over_set(arg):
            self.report(
                node,
                f"`{resolved}()` over a set folds floats in arbitrary hash "
                "order — wrap the set in `sorted(...)` to keep the 1e-9 "
                "equivalence gates deterministic",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_loop(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_loop(node)

    def _check_loop(self, node) -> None:
        if not self._is_set_expr(node.iter):
            return
        for child in walk_in_order(node):
            if child is node:
                continue
            if isinstance(child, ast.AugAssign) and isinstance(
                child.op, (ast.Add, ast.Sub, ast.Mult)
            ):
                self._report_loop(node, "accumulates with augmented assignment")
                return
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in ORDERED_APPENDERS
            ):
                self._report_loop(node, f"builds an ordered list via `.{child.func.attr}()`")
                return

    def _report_loop(self, node, how: str) -> None:
        self.report(
            node,
            f"loop over a set {how} — set order is arbitrary; iterate "
            "`sorted(...)` so the accumulation order (and any float sum) "
            "is reproducible",
        )
