"""Per-rule fixture tests: every rule fires on its positive fixture and
stays silent on its negative twin.

Fixtures live under ``tests/analysis/fixtures/``; the ``repro/...``
subtree there resolves through :class:`repro.analysis.context.FileContext`
exactly like the real package, so package-scoped rules (REP001, REP004,
REP007-strict, REP008) are exercised with their real scoping logic.
"""

from __future__ import annotations

import collections
from pathlib import Path

import pytest

from repro.analysis.engine import Analyzer

FIXTURES = Path(__file__).parent / "fixtures"

#: (fixture, rule id, expected finding count) — counts are exact so a
#: rule that quietly starts over- or under-matching fails loudly.
POSITIVE = [
    ("repro/sim/wallclock_bad.py", "REP001", 3),
    ("rng_bad.py", "REP002", 8),
    ("setorder_bad.py", "REP003", 4),
    ("repro/serve/asyncsafety_bad.py", "REP004", 6),
    ("tasks_bad.py", "REP005", 3),
    ("defaults_bad.py", "REP006", 5),
    ("repro/serve/excepts_bad.py", "REP007", 3),
    ("repro/sim/layering_bad.py", "REP008", 2),
    ("repro/serve/buffers_bad.py", "REP009", 3),
]

#: Negative fixtures must be *entirely* clean, not just clean for the
#: rule under test — a false positive from any rule is a bug.
NEGATIVE = [
    ("repro/sim/wallclock_ok.py", "REP001"),
    ("rng_ok.py", "REP002"),
    ("setorder_ok.py", "REP003"),
    ("repro/serve/asyncsafety_ok.py", "REP004"),
    ("tasks_ok.py", "REP005"),
    ("defaults_ok.py", "REP006"),
    ("repro/serve/excepts_ok.py", "REP007"),
    ("repro/sim/layering_ok.py", "REP008"),
    ("repro/serve/buffers_ok.py", "REP009"),
]


def analyze(relpath: str):
    return Analyzer().analyze_file(str(FIXTURES / relpath))


@pytest.mark.parametrize("relpath,rule,count", POSITIVE)
def test_rule_fires_on_positive_fixture(relpath, rule, count):
    report = analyze(relpath)
    by_rule = collections.Counter(f.rule for f in report.findings)
    assert by_rule[rule] == count, (
        f"{relpath}: expected {count} {rule} findings, got "
        f"{by_rule[rule]}: {[f.format() for f in report.findings]}"
    )


@pytest.mark.parametrize("relpath,rule", NEGATIVE)
def test_rule_silent_on_negative_fixture(relpath, rule):
    report = analyze(relpath)
    assert report.findings == [], (
        f"{relpath}: expected clean, got "
        f"{[f.format() for f in report.findings]}"
    )


def test_positive_fixture_findings_carry_location_and_snippet():
    report = analyze("repro/sim/wallclock_bad.py")
    for finding in report.findings:
        assert finding.line > 0
        assert finding.snippet  # baselines match on this
        assert "wallclock_bad.py" in finding.path


def test_scoped_rule_ignores_unscoped_package():
    # The same wall-clock source outside sim/serve/logs/storage is fine:
    # experiments may stamp wall time into manifests.
    src = (FIXTURES / "repro/sim/wallclock_bad.py").read_text()
    report = Analyzer().analyze_source("repro/experiments/wallclock.py", src)
    assert [f for f in report.findings if f.rule == "REP001"] == []


def test_clock_modules_are_whitelisted():
    src = "import time\n\ndef now():\n    return time.monotonic()\n"
    for path in ("src/repro/sim/clock.py", "src/repro/serve/vclock.py"):
        report = Analyzer().analyze_source(path, src)
        assert report.findings == [], path


def test_blocking_call_check_is_serve_only():
    src = (
        "import time\nimport asyncio\n\n"
        "async def f():\n    time.sleep(0.1)\n"
    )
    serve = Analyzer().analyze_source("repro/serve/mod.py", src)
    sim = Analyzer().analyze_source("repro/sim/mod.py", src)
    assert any(f.rule == "REP004" for f in serve.findings)
    assert not any(f.rule == "REP004" for f in sim.findings)


def test_broad_except_outside_serve_is_tolerated():
    src = "try:\n    pass\nexcept Exception:\n    pass\n"
    report = Analyzer().analyze_source("repro/experiments/mod.py", src)
    assert report.findings == []


def test_layering_flags_unknown_package():
    src = "from repro.shinynew import thing\n"
    report = Analyzer().analyze_source("repro/sim/mod.py", src)
    assert any(
        f.rule == "REP008" and "layering table" in f.message
        for f in report.findings
    )
