"""One cold run of one workload, in a process of its own.

``run.py`` starts this script once per run, so every run starts as a
user's process does: nothing memoized, no warm caches.  It times the
set-up and the entry-point call, checks the outputs, and prints one JSON
object on its last line of standard output.

An untraced run samples the host's speed while each phase runs
(``speed.SpeedProbe``) and reports each phase's time at the nominal
speed as well as its wall time.  A traced run installs the layer
wrappers and no probe.

    python3 perfbench/rep.py --workload serve-hot --seed 1 [--trace]
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

#: Float slack allowed when the layers' self times re-sum to the wall.
RESUM_TOL_S = 1e-6

#: Modules the workloads import, some of them lazily inside the entry
#: points, imported before the clock starts so that no import is timed.
PRELOAD = (
    "repro.experiments.common",
    "repro.experiments.hitrate",
    "repro.logs.columnar",
    "repro.obs.flight",
    "repro.obs.triggers",
    "repro.pocketsearch.hashtable",
    "repro.serve.harness",
    "repro.sim.vectorized",
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    for name in PRELOAD:
        importlib.import_module(name)
    import layers
    import workloads
    from ledger import Ledger
    from speed import SpeedProbe

    os.makedirs(OUT_DIR, exist_ok=True)
    ledger = Ledger(active=args.trace)
    if args.trace:
        layers.instrument(ledger)
    run = workloads.Run(args.workload, args.seed, OUT_DIR, ledger)
    run.install()

    def probe():
        return contextlib.nullcontext() if args.trace else SpeedProbe()

    try:
        with ledger.span("rep"):
            with probe() as setup_probe, ledger.span("setup"):
                t0 = time.perf_counter()
                run.setup()
                t1 = time.perf_counter()
            run.phase = "call"
            with probe() as call_probe, ledger.span("call"):
                t2 = time.perf_counter()
                run.call()
                t3 = time.perf_counter()
        ledger.active = False
        run.phase = "after"
        run.finish()
        failures = run.check()
    finally:
        run.cleanup()

    out = {
        "traced": args.trace,
        "setup_s": t1 - t0,
        "call_s": t3 - t2,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "attempted": run.operations(),
        "shed": run.shed(),
        "modelled": run.modelled(),
    }
    if args.trace:
        table = ledger.layers()
        resum = sum(row["self_s"] for row in table.values())
        if abs(resum - table["rep"]["total_s"]) > RESUM_TOL_S:
            failures.append(
                f"layer self times re-sum to {resum} s, not to the traced "
                f"wall {table['rep']['total_s']} s"
            )
        out["per_layer"] = layers.per_layer(ledger, run)
        out["layers"] = table
        ledger.write_jsonl(
            os.path.join(OUT_DIR, f"spans-{args.workload}.jsonl")
        )
    else:
        out["setup_scaled_s"] = setup_probe.scaled(t1 - t0)
        out["call_scaled_s"] = call_probe.scaled(t3 - t2)
        out["probe"] = {
            "setup": setup_probe.summary(),
            "call": call_probe.summary(),
        }
    out["failures"] = failures
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    code = main()
    # Skip interpreter teardown: freeing the run's heap object by object
    # takes a measurable share of a run and measures nothing.
    sys.stdout.flush()
    os._exit(code)
