"""REP006: no mutable default arguments.

A ``def f(acc=[])`` default is created once at function definition and
shared by every call — state leaks between invocations.  In this
codebase that is doubly poisonous: a shared default accumulator in
replay code couples users through hidden state, so a user's result
would depend on which users were replayed before it.

Flagged default expressions: ``[]``/``{}``/``{...}`` literals,
comprehensions, and bare ``list()``/``dict()``/``set()``/
``collections.defaultdict(...)``/``collections.OrderedDict(...)``/
``bytearray()`` constructor calls.  Use ``None`` plus an in-body
``x = x if x is not None else []``.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import Rule
from repro.analysis.findings import Severity

__all__ = ["MutableDefaultRule"]

MUTABLE_CTORS = {
    "list", "dict", "set", "bytearray",
    "collections.defaultdict", "collections.OrderedDict",
    "collections.deque", "collections.Counter",
}


class MutableDefaultRule(Rule):
    id = "REP006"
    name = "no-mutable-defaults"
    severity = Severity.ERROR

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check(node)

    def _check(self, node) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if self._is_mutable(default):
                self.report(
                    default,
                    "mutable default argument is created once and shared "
                    "by every call — default to None and build the "
                    "container in the body",
                )

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(
            node,
            (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
        ):
            return True
        if isinstance(node, ast.Call):
            resolved = self.ctx.imports.resolve(node.func)
            return resolved in MUTABLE_CTORS
        return False
