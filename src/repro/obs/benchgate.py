"""``repro bench-gate``: fail CI when the perf trajectory regresses.

Compares a *candidate* BENCH document (or a single run manifest) against
a committed *baseline* (``BENCH_seed.json``) and exits nonzero when any
watched metric regressed beyond tolerance.  Both inputs accept either
format produced by this repo:

* the :mod:`benchmarks.emit_bench_json` aggregate
  (``{"benches": [manifest, ...]}``);
* one :class:`~repro.obs.manifest.RunManifest` JSON.

Metrics are compared by *name* within benches of the same name; nested
metric dicts (e.g. a load-test rate sweep) are flattened with dotted
keys.  Direction matters: latency percentiles and shed rates regress
upward, hit rates and throughput regress downward.  Wall-clock and RSS
fields are ignored by default — they measure the CI machine, not the
code — but can be opted in with ``--watch``.

Exit codes: 0 clean, 1 regression, 2 usage/input error.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import math
import sys
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["DEFAULT_WATCH", "compare", "flatten_metrics", "load_benches", "main"]

#: ``(glob over flattened metric name, direction)`` — direction is
#: ``"lower"`` (regression = increase) or ``"higher"`` (= decrease).
#: First match wins; unmatched metrics are not gated.
DEFAULT_WATCH: Tuple[Tuple[str, str], ...] = (
    ("*energy_j_per_query", "lower"),
    ("*energy_j_p50", "lower"),
    ("*energy_j_p99", "lower"),
    ("*hit_miss_energy_ratio", "higher"),
    ("*battery_day_fraction", "lower"),
    ("*queries_per_charge", "higher"),
    ("*p50_s", "lower"),
    ("*p99_s", "lower"),
    ("*p99*", "lower"),
    ("*max_s", "lower"),
    ("*wait_s", "lower"),
    ("*shed_rate", "lower"),
    ("*hit_rate", "higher"),
    ("*throughput_rps", "higher"),
    ("*batch_efficiency", "higher"),
    ("*events_per_s", "higher"),
    ("*speedup_x", "higher"),
)


def flatten_metrics(
    metrics: Dict[str, Any], prefix: str = ""
) -> Dict[str, float]:
    """Numeric leaves of a (possibly nested) metrics dict, dotted keys."""
    out: Dict[str, float] = {}
    for key, value in metrics.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(flatten_metrics(value, prefix=name + "."))
        elif isinstance(value, bool):
            continue  # pass/fail flags are not perf metrics
        elif isinstance(value, (int, float)):
            out[name] = float(value)
    return out


def load_benches(path: str) -> Dict[str, Dict[str, float]]:
    """``bench name -> flattened metrics`` from either input format."""
    with open(path) as fh:
        doc = json.load(fh)
    if "benches" in doc:
        entries = doc["benches"]
    elif "name" in doc:
        entries = [doc]
    else:
        raise ValueError(
            f"{path}: neither a BENCH aggregate ('benches') nor a run "
            "manifest ('name')"
        )
    out: Dict[str, Dict[str, float]] = {}
    for entry in entries:
        out[entry["name"]] = flatten_metrics(entry.get("metrics", {}))
    return out


def _direction(name: str, watch) -> Optional[str]:
    tail = name.rsplit(".", 1)[-1]
    for pattern, direction in watch:
        if fnmatch.fnmatch(tail, pattern) or fnmatch.fnmatch(name, pattern):
            return direction
    return None


def compare(
    baseline: Dict[str, Dict[str, float]],
    candidate: Dict[str, Dict[str, float]],
    max_regression: float = 0.25,
    abs_floor: float = 1e-9,
    watch=DEFAULT_WATCH,
) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    """Diff watched metrics of the benches both documents contain.

    Returns ``(rows, regressions)``: every compared metric, and the
    subset whose relative regression exceeds ``max_regression``.
    Baselines smaller than ``abs_floor`` are compared absolutely
    against the floor to avoid divide-by-tiny blowups.
    """
    rows: List[Dict[str, Any]] = []
    regressions: List[Dict[str, Any]] = []
    for bench in sorted(set(baseline) & set(candidate)):
        base_metrics, cand_metrics = baseline[bench], candidate[bench]
        for name in sorted(set(base_metrics) & set(cand_metrics)):
            direction = _direction(name, watch)
            if direction is None:
                continue
            base, cand = base_metrics[name], cand_metrics[name]
            if math.isnan(base) or math.isnan(cand):
                continue
            worse = cand - base if direction == "lower" else base - cand
            denom = max(abs(base), abs_floor)
            rel = worse / denom
            row = {
                "bench": bench,
                "metric": name,
                "direction": direction,
                "baseline": base,
                "candidate": cand,
                "regression": rel,
            }
            rows.append(row)
            if rel > max_regression:
                regressions.append(row)
    return rows, regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro bench-gate",
        description="Diff a fresh BENCH/manifest against a committed "
        "baseline and fail on perf regression.",
    )
    parser.add_argument(
        "--baseline", required=True, metavar="PATH",
        help="committed trajectory baseline (e.g. BENCH_seed.json)",
    )
    parser.add_argument(
        "--candidate", required=True, metavar="PATH",
        help="freshly generated BENCH aggregate or run manifest",
    )
    parser.add_argument(
        "--max-regression", type=float, default=0.25, metavar="F",
        help="allowed relative worsening per watched metric "
        "(default 0.25 = 25%%)",
    )
    parser.add_argument(
        "--watch", action="append", default=None, metavar="GLOB:DIR",
        help="extra watch rule, e.g. 'wall_time_s:lower' "
        "(repeatable; prepended to the defaults)",
    )
    parser.add_argument(
        "--verbose", action="store_true",
        help="print every compared metric, not just regressions",
    )
    args = parser.parse_args(argv)

    watch = list(DEFAULT_WATCH)
    for spec in args.watch or ():
        if ":" not in spec:
            print(f"bench-gate: bad --watch {spec!r} (want GLOB:DIR)",
                  file=sys.stderr)
            return 2
        pattern, direction = spec.rsplit(":", 1)
        if direction not in ("lower", "higher"):
            print(f"bench-gate: bad direction {direction!r}", file=sys.stderr)
            return 2
        watch.insert(0, (pattern, direction))

    try:
        baseline = load_benches(args.baseline)
        candidate = load_benches(args.candidate)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"bench-gate: {exc}", file=sys.stderr)
        return 2

    common = set(baseline) & set(candidate)
    if not common:
        print(
            f"bench-gate: no common benches between {args.baseline} "
            f"({sorted(baseline)}) and {args.candidate} "
            f"({sorted(candidate)})",
            file=sys.stderr,
        )
        return 2

    rows, regressions = compare(
        baseline, candidate, max_regression=args.max_regression, watch=watch
    )
    shown = rows if args.verbose else regressions
    if shown:
        width = max(len(f"{r['bench']}:{r['metric']}") for r in shown)
        for row in shown:
            flag = "REGRESSED" if row in regressions else "ok"
            change = "worse" if row["regression"] > 0 else "better"
            print(
                f"{row['bench']}:{row['metric']:<{width}}  "
                f"{row['baseline']:.6g} -> {row['candidate']:.6g}  "
                f"({abs(row['regression']):.1%} {change}, {row['direction']} "
                f"is better)  {flag}"
            )
    print(
        f"bench-gate: {len(rows)} watched metrics across "
        f"{len(common)} benches, {len(regressions)} regression(s) "
        f"beyond {args.max_regression:.0%}"
    )
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
