"""REP007: no exception swallowing on the accounting paths.

``except:`` (which also catches ``KeyboardInterrupt`` and, fatally for
asyncio, ``CancelledError``) is banned everywhere.  In the serve
package the bar is higher: a broad ``except Exception`` that does not
re-raise can swallow an :class:`~repro.serve.requests.Overloaded` shed
or a worker failure, so requests vanish without being counted and the
conservation check (submitted == completed + shed) silently rots.
Catch the specific exception, or re-raise after recording.  Handing the
caught exception to ``<future>.set_exception(<name>)`` forwards it to
whoever awaits the future, so it counts as a re-raise.
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.analysis.engine import Rule, walk_in_order
from repro.analysis.findings import Severity

__all__ = ["ExceptionSwallowRule"]

BROAD_NAMES = {"Exception", "BaseException"}

#: Packages where even a broad non-re-raising handler is an error.
STRICT_SCOPE = {"serve"}


def _reraises(handler: ast.ExceptHandler) -> bool:
    return any(
        isinstance(n, ast.Raise) or _forwards(n, handler.name)
        for n in walk_in_order(handler)
    )


def _forwards(node: ast.AST, bound: Optional[str]) -> bool:
    """True for a ``<expr>.set_exception(<bound>)`` call."""
    return (
        bound is not None
        and isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "set_exception"
        and len(node.args) == 1
        and isinstance(node.args[0], ast.Name)
        and node.args[0].id == bound
    )


def _broad_names(type_node: ast.AST):
    nodes = (
        type_node.elts if isinstance(type_node, ast.Tuple) else [type_node]
    )
    for node in nodes:
        if isinstance(node, ast.Name) and node.id in BROAD_NAMES:
            yield node.id


class ExceptionSwallowRule(Rule):
    id = "REP007"
    name = "no-exception-swallowing"
    severity = Severity.ERROR

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.report(
                node,
                "bare `except:` also catches KeyboardInterrupt and "
                "asyncio.CancelledError — name the exception type",
            )
            return
        if not self.ctx.in_packages(STRICT_SCOPE):
            return
        broad = list(_broad_names(node.type))
        if broad and not _reraises(node):
            self.report(
                node,
                f"broad `except {broad[0]}` without re-raise in the serve "
                "path can swallow Overloaded sheds/worker failures and "
                "corrupt request accounting — catch the specific type or "
                "`raise` after recording",
            )
