"""repro.analysis: determinism & async-safety static analysis.

An AST-based rule engine purpose-built for this reproduction's
invariants — the properties the differential test suite can only
spot-check are enforced on every file, every commit:

=======  ========================  ==============================================
rule     name                      invariant protected
=======  ========================  ==============================================
REP001   no-wall-clock             virtual time only in sim/serve/logs/storage
REP002   seeded-rng-only           all randomness flows from explicit seeds
REP003   set-order-accumulation    float folds independent of set hash order
REP004   async-lock-safety         no await holding a sync-acquired lock;
                                   no blocking calls in async serve code
REP005   retain-created-tasks      asyncio tasks are owned, not fire-and-forget
REP006   no-mutable-defaults       no hidden shared state across calls
REP007   no-exception-swallowing   shed/overload accounting cannot vanish
REP008   import-layering           dependencies flow down the package DAG
=======  ========================  ==============================================

Suppress a single finding inline with ``# repro: noqa[REP001]`` (or
ruff-shaped ``# repro: noqa: REP001``); grandfather pre-existing
deliberate findings in ``LINT_baseline.json``.  See ``repro lint
--help`` and the README "Static analysis" section.
"""

from __future__ import annotations

from repro.analysis.baseline import Baseline, partition
from repro.analysis.context import FileContext, ImportMap
from repro.analysis.engine import Analyzer, FileReport, Rule
from repro.analysis.findings import Finding, Severity

__all__ = [
    "Analyzer",
    "Baseline",
    "FileContext",
    "FileReport",
    "Finding",
    "ImportMap",
    "Rule",
    "Severity",
    "partition",
]
