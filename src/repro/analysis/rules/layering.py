"""REP008: enforce the package layering DAG.

The repo's architecture flows strictly upward — substrate models at
the bottom, orchestration at the top:

===== =========================================================
level packages
===== =========================================================
0     ``obs`` (observability: imports nothing else in ``repro``)
1     ``logs``, ``storage``, ``radio``, ``nvmscaling``
2     ``core``, ``sim``, ``baselines``, ``device``,
      ``pocketsearch``/``pocketads``/``pocketmaps``/``pocketweb``/
      ``pocketyellow``
3     ``analysis``
4     ``serve``, ``edge``, ``experiments``
5     ``cli``, ``__init__``, ``__main__``
===== =========================================================

A module may import its own level or below; importing *upward* (the
canonical accident: ``sim/`` reaching into ``serve/``) inverts the
dependency direction, creates import cycles, and drags asyncio into
the pure model layer.
Within-level imports are allowed (``sim`` and ``pocketsearch`` are
mutually recursive by design: the replay harness drives cloudlet
engines, engines read the sim clock).

Unknown subpackages are *flagged* — a new package must be added to the
table here (with a conscious level choice), not silently exempted.
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.analysis.context import FileContext
from repro.analysis.engine import Rule
from repro.analysis.findings import Severity

__all__ = ["LAYERS", "LayeringRule"]

LAYERS = {
    "obs": 0,
    "logs": 1,
    "storage": 1,
    "radio": 1,
    "nvmscaling": 1,
    "core": 2,
    "sim": 2,
    "baselines": 2,
    "device": 2,
    "pocketsearch": 2,
    "pocketads": 2,
    "pocketmaps": 2,
    "pocketweb": 2,
    "pocketyellow": 2,
    "analysis": 3,
    # serve, edge, and experiments are one level by design: the edge
    # tier plugs into the server's miss path (and borrows its batcher),
    # while experiments drive serve_replay/loadtest sweeps.
    "experiments": 4,
    "serve": 4,
    "edge": 4,
    "cli": 5,
    "__init__": 5,
    "__main__": 5,
}


class LayeringRule(Rule):
    id = "REP008"
    name = "import-layering"
    severity = Severity.ERROR

    @classmethod
    def applies_to(cls, ctx: FileContext) -> bool:
        return ctx.subpackage is not None

    def _target_package(self, module: str) -> Optional[str]:
        if module == "repro":
            # ``from repro import x`` goes through the top-level facade.
            return "__init__"
        if module.startswith("repro."):
            return module.split(".")[1]
        return None

    def _check(self, node: ast.AST, module: str) -> None:
        target = self._target_package(module)
        if target is None or target == self.ctx.subpackage:
            return
        src_level = LAYERS.get(self.ctx.subpackage)
        tgt_level = LAYERS.get(target)
        if src_level is None or tgt_level is None:
            missing = target if tgt_level is None else self.ctx.subpackage
            self.report(
                node,
                f"package `repro.{missing}` is not in the layering table — "
                "add it to repro/analysis/rules/layering.py with an "
                "explicit level",
            )
            return
        if tgt_level > src_level:
            self.report(
                node,
                f"layering violation: `repro.{self.ctx.subpackage}` "
                f"(level {src_level}) imports `repro.{target}` (level "
                f"{tgt_level}) — dependencies must flow downward; move "
                "the shared code below both, or invert with a callback",
            )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._check(node, alias.name)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level:  # relative import: intra-package by construction
            return
        if node.module:
            self._check(node, node.module)
