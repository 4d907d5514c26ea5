"""Wall-clock benchmark of the serve and replay entry points.

    python3 perfbench/run.py --seconds S [--workload NAME|all] [--seed N]
                             [--trace 0|1]

Each workload runs as a sequence of cold runs, one process each
(``rep.py``), until ``--seconds`` are used up, with at least
``MIN_RUNS``.  Every run builds its inputs from ``--seed``, times the
set-up and the entry-point call, and checks its outputs.  The report
gives medians over the runs.

With ``--trace 0`` the runs are untraced: the wall metrics are the
phases' times scaled to a nominal host speed (``speed.py``), and the
last line of standard output is a JSON object holding every end-to-end
metric of BENCHMARK.json.  With ``--trace 1`` every run is traced (layer
wrappers installed, no speed probe); the report prints each layer's
count, total, self time, p50 and p99, and the JSON object holds every
per-layer metric.  A failed output check marks the run's operations
failed and exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

from workloads import WORKLOADS, ServeShape

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Cold runs per workload at least; set-up time is the median over them.
MIN_RUNS = 3
#: One invocation must end within this; a run still going then is hung.
INVOCATION_LIMIT_S = 170

#: BENCHMARK.json lists serve-hot and replay-daily; serve-fleet is run
#: by hand, because a full evaluation (22 invocations per listed
#: workload within 3420 s) holds two workloads at three cold runs each.
NAMES = tuple(WORKLOADS)

#: The end-to-end metrics printed for every workload, with their units.
#: BENCHMARK.json carries those that vary with the seed and are never 0.
PRINTED_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "hit_rate": "fraction",
    "sojourn_p50_s": "s",
    "sojourn_p99_s": "s",
    "energy_j_per_query": "J",
    "shed_rate": "fraction",
}


def _ops_meaning(workload: str) -> str:
    """What the single throughput metric counts on ``workload``."""
    if isinstance(WORKLOADS[workload], ServeShape):
        return "requests_per_s: completed requests per s of run_loadtest"
    return "events_per_s: replayed events (both halves) per s of daily_updates"


def _spawn(
    workload: str, seed: int, traced: bool, timeout: float
) -> Dict[str, Any]:
    cmd = [
        sys.executable, os.path.join(HERE, "rep.py"),
        "--workload", workload, "--seed", str(seed),
    ]
    if traced:
        cmd.append("--trace")
    proc = subprocess.run(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout,
        check=False, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} run exited with code {proc.returncode}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool
) -> Dict[str, Any]:
    """Cold runs of one workload until ``seconds`` are used."""
    runs: List[Dict[str, Any]] = []
    start = time.perf_counter()
    while True:
        remaining = INVOCATION_LIMIT_S - (time.perf_counter() - start)
        runs.append(_spawn(workload, seed, trace, remaining))
        elapsed = time.perf_counter() - start
        if len(runs) >= MIN_RUNS and elapsed * (1 + 1 / len(runs)) > seconds:
            return summarize(workload, runs)


def summarize(workload: str, runs: List[Dict[str, Any]]) -> Dict[str, Any]:
    failures = [f for r in runs for f in r["failures"]]
    modelled = runs[0]["modelled"]
    if any(r["modelled"] != modelled for r in runs):
        failures.append("modelled outputs differ between runs of one seed")
    attempted = sum(r["attempted"] for r in runs)
    failed = attempted if failures else sum(r["shed"] for r in runs)

    def median(key):
        return statistics.median(r[key] for r in runs)

    out = {
        "workload": workload,
        "runs": len(runs),
        "traced": runs[0]["traced"],
        "setup_wall_s": [r["setup_s"] for r in runs],
        "call_wall_s": [r["call_s"] for r in runs],
        "modelled": modelled,
        "failures": failures,
        "attempted": attempted,
        "failed": failed,
    }
    e2e: Dict[str, float] = {}
    if out["traced"]:
        out["per_layer"] = {
            name: statistics.median(r["per_layer"][name] for r in runs)
            for name in runs[0]["per_layer"]
        }
        out["layers"] = runs[len(runs) // 2]["layers"]
    else:
        e2e["setup_s"] = median("setup_scaled_s")
        e2e["ops_per_s"] = statistics.median(
            modelled["ops"] / r["call_scaled_s"] for r in runs
        )
        e2e["peak_rss_mb"] = median("peak_rss_mb")
        out["probe_us"] = [
            (r["probe"]["setup"]["mean_s"] * 1e6,
             r["probe"]["call"]["mean_s"] * 1e6)
            for r in runs
        ]
    for name in ("hit_rate", "sojourn_p50_s", "sojourn_p99_s",
                 "energy_j_per_query", "shed_rate"):
        e2e[name] = modelled[name]
    out["e2e"] = e2e
    return out


# -- printing ----------------------------------------------------------------


def _e2e_notes(result: Dict[str, Any]) -> Dict[str, str]:
    n = result["modelled"]["sojourn_n"]
    beyond = n - math.ceil(99 / 100 * n)  # past the nearest-rank p99
    return {
        "setup_s": f"median of {result['runs']} cold set-ups, at the "
        "nominal host speed",
        "ops_per_s": _ops_meaning(result["workload"])
        + ", at the nominal host speed",
        "peak_rss_mb": "median over runs of each run's peak RSS",
        "hit_rate": "modelled",
        "sojourn_p50_s": f"modelled; n={n}",
        "sojourn_p99_s": f"modelled; n={n}, {beyond} samples beyond",
        "energy_j_per_query": f"modelled; mean over {n} queries",
        "shed_rate": "modelled; sheds are the failed operations",
    }


def print_report(result: Dict[str, Any]) -> None:
    m = result["modelled"]
    inputs = (
        f"{m['devices']} devices, {m['requests']} requests"
        if "devices" in m
        else f"{m['users']} users, {m['ops']} events over both halves"
    )
    kind = "traced" if result["traced"] else "untraced"
    print(
        f"== {result['workload']}: {result['runs']} {kind} cold runs; "
        f"{inputs}"
    )
    for phase in ("setup", "call"):
        print(f"  {phase} wall (s): " + " ".join(
            f"{t:.3f}" for t in result[f"{phase}_wall_s"]
        ))
    if "probe_us" in result:
        print("  speed probe, mean per sample (us, setup/call): " + " ".join(
            f"{s:.0f}/{c:.0f}" for s, c in result["probe_us"]
        ))
    notes = _e2e_notes(result)
    for name, value in result["e2e"].items():
        print(
            f"  {name:<20} {value:>14.6g} {PRINTED_UNITS[name]:<9} "
            f"{notes[name]}"
        )
    print(
        f"  attempted {result['attempted']}  failed {result['failed']}"
    )
    for failure in result["failures"]:
        print(f"  CHECK FAILED: {failure}")
    if "layers" in result:
        print_layers(result)


def print_layers(result: Dict[str, Any]) -> None:
    layers = result["layers"]
    root = layers["rep"]["total_s"]
    resum = sum(row["self_s"] for row in layers.values())
    print(
        f"  per-layer ledger of one traced run: wall {root:.4f} s, "
        f"self times re-sum to {resum:.4f} s"
    )
    print(
        f"  {'layer':<26} {'count':>7} {'total_s':>9} {'self_s':>9} "
        f"{'share':>6} {'p50_ms':>9} {'p99_ms':>9}"
    )
    for name, row in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
        print(
            f"  {name:<26} {row['count']:>7} {row['total_s']:>9.4f} "
            f"{row['self_s']:>9.4f} {row['self_s'] / root:>6.1%} "
            f"{row['p50_s'] * 1e3:>9.3f} {row['p99_s'] * 1e3:>9.3f}"
        )
    per_layer = result["per_layer"]
    print(
        f"  trace.coverage {per_layer['trace.coverage']:.4f}  "
        f"trace.overhead_frac {per_layer['trace.overhead_frac']:.4f} "
        "(medians over the traced runs)"
    )


def _metrics(result, specs, source):
    return {
        spec["name"]: {
            "value": result[source][spec["name"]], "unit": spec["unit"]
        }
        for spec in specs
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Wall-clock benchmark of the serve and replay entry "
        "points."
    )
    parser.add_argument("--workload", default="all", choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(
            f"perfbench: no repro sources under {ROOT}/src",
            file=sys.stderr,
        )
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    names = NAMES if args.workload == "all" else (args.workload,)

    results = []
    for name in names:
        try:
            result = run_workload(
                name, args.seed, args.seconds, bool(args.trace)
            )
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        print_report(result)
        results.append(result)

    source = "per_layer" if args.trace else "e2e"
    if len(results) == 1:
        metrics = _metrics(results[0], specs, source)
    else:
        metrics = {
            f"{r['workload']}.{name}": value
            for r in results
            for name, value in _metrics(r, specs, source).items()
        }
    correct = not any(r["failures"] for r in results)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
