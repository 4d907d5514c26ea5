"""Command-line interface: regenerate any paper artifact.

Usage::

    python -m repro list                 # available artifacts
    python -m repro table2               # print one artifact
    python -m repro fig17 --users 40     # replay-based figures take --users
    python -m repro all                  # everything (slow)

Observability wrappers run any artifact with the span tracer on::

    python -m repro trace fig17 --users 5      # writes trace.jsonl
    python -m repro profile fig17 --users 5    # prints span-time breakdown

Online-serving verbs (see :mod:`repro.serve`)::

    python -m repro serve --users 5 --check-equivalence
    python -m repro loadtest --duration 600 --rate 10 --manifest-out m.json

Telemetry verbs::

    python -m repro top --url http://127.0.0.1:9464   # live dashboard
    python -m repro top --snapshot snap.json          # render one frame
    python -m repro bench-gate --baseline BENCH_seed.json --candidate b.json
    python -m repro postmortem flight_bundles/flight-shed-spike-t95000

Static analysis (see :mod:`repro.analysis`)::

    python -m repro lint                  # determinism/async-safety rules
    python -m repro lint --format json --stats

Any invocation can also record a run manifest (seed/config/git
SHA/wall-time/peak-RSS JSON) with ``--manifest-out PATH``.

Each command prints the same rows the corresponding benchmark emits.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, Optional

from repro.experiments import (
    ablations,
    cachedesign,
    characterization,
    extensions,
    hitrate,
    performance,
    scaling,
)
from repro.experiments.common import format_table
from repro.obs import trace as obs_trace
from repro.obs.manifest import ManifestRecorder

#: Wrapper subcommands that run an artifact under the tracer.
OBS_MODES = ("trace", "profile")

#: Users per Table 6 class when ``--users`` is absent.
DEFAULT_USERS = 40
#: Replay artifacts whose default is smaller.
ARTIFACT_USERS = {"daily-updates": 10, "baselines": 10}

#: Online-serving verbs with their own parsers (see repro.serve.cli).
SERVE_MODES = ("serve", "loadtest")


def _print_table1() -> None:
    rows = scaling.table1()
    print(
        format_table(
            [list(r.values()) for r in rows],
            list(rows[0].keys()),
        )
    )


def _print_fig2() -> None:
    for scenario, series in scaling.figure2().items():
        points = ", ".join(f"{p.year}: {p.high_end_gb:.0f}GB" for p in series)
        print(f"{scenario:28} {points}")


def _print_table2() -> None:
    print(
        format_table(
            [[n, b, f"{c:,}"] for n, b, c in scaling.table2()],
            ["cloudlet", "item bytes", "items"],
        )
    )


def _print_fig4() -> None:
    f4 = characterization.figure4()
    k60 = f4.pop("_k60")
    rows = [
        [name, d["distinct_queries"], d["queries_for_60pct"],
         f"{d['query_coverage_at_k60']:.3f}"]
        for name, d in f4.items()
    ]
    print(format_table(rows, ["subset", "queries", "q@60%", f"cov@{k60}"]))


def _print_fig5() -> None:
    f5 = characterization.figure5()
    for key, value in f5.items():
        if isinstance(value, float):
            print(f"{key:30} {value:.3f}")


def _print_table3() -> None:
    print(
        format_table(
            [[t.query, t.url, t.volume] for t in characterization.table3(10)],
            ["query", "result", "volume"],
        )
    )


def _print_fig7() -> None:
    print(
        format_table(
            [[k, f"{v:.3f}"] for k, v in cachedesign.figure7()],
            ["pairs", "coverage"],
        )
    )


def _print_fig8() -> None:
    rows = cachedesign.figure8()
    print(
        format_table(
            [
                [f"{r['coverage']:.2f}", r["pairs"], r["dram_bytes"], r["flash_bytes"]]
                for r in rows
            ],
            ["coverage", "pairs", "DRAM B", "flash B"],
        )
    )


def _print_fig11() -> None:
    rows = cachedesign.figure11()
    print(
        format_table(
            [[r["results_per_entry"], r["entries"], r["footprint_bytes"]] for r in rows],
            ["results/entry", "entries", "bytes"],
        )
    )


def _print_fig12() -> None:
    rows = cachedesign.figure12()
    print(
        format_table(
            [
                [r["n_files"], f"{r['mean_fetch2_s'] * 1000:.2f}",
                 r["fragmentation_bytes"]]
                for r in rows
            ],
            ["files", "fetch2 (ms)", "frag B"],
        )
    )


def _print_fig15() -> None:
    f15 = performance.figure15()
    rows = []
    for path, d in f15.items():
        rows.append(
            [
                path,
                f"{d['mean_latency_s']:.3f}",
                f"{d.get('latency_speedup', 1):.1f}x",
                f"{d['mean_energy_j']:.2f}",
                f"{d.get('energy_ratio', 1):.1f}x",
            ]
        )
    print(
        format_table(
            rows, ["path", "latency s", "speedup", "energy J", "ratio"]
        )
    )


def _print_table4() -> None:
    t4 = performance.table4()
    print(
        format_table(
            [
                [part, f"{d['mean_s'] * 1000:.2f}", f"{d['share'] * 100:.1f}%"]
                for part, d in t4.items()
            ],
            ["operation", "ms", "share"],
        )
    )


def _print_table5() -> None:
    t5 = performance.table5()
    print(
        format_table(
            [
                [p, f"{d['pocketsearch_s']:.2f}", f"{d['threeg_s']:.2f}",
                 f"{d['speedup_pct']:.1f}%"]
                for p, d in t5.items()
            ],
            ["page", "PocketSearch s", "3G s", "speedup"],
        )
    )


def _print_fig16() -> None:
    f16 = performance.figure16()
    for path in ("pocketsearch", "radio"):
        d = f16[path]
        name = d.get("name", path)
        print(
            f"{name:14} total {d['total_s']:.1f}s  energy {d['energy_j']:.1f}J  "
            f"mean power {d['mean_power_w'] * 1000:.0f}mW"
        )


def _print_table6() -> None:
    t6 = hitrate.table6()
    print(
        format_table(
            [
                [c, str(d["volume_range"]), f"{d['observed_share']:.3f}",
                 f"{d['target_share']:.2f}"]
                for c, d in t6.items()
            ],
            ["class", "volume", "observed", "paper"],
        )
    )


def _print_fig17(users: int) -> None:
    f17 = hitrate.figure17(users_per_class=users)
    rows = [
        [mode] + [f"{d[k]:.3f}" for k in ("overall", "low", "medium", "high", "extreme")]
        for mode, d in f17.items()
    ]
    print(format_table(rows, ["mode", "overall", "low", "med", "high", "extreme"]))


def _print_fig18(users: int) -> None:
    f18 = hitrate.figure18(users_per_class=users)
    for window, modes in f18.items():
        for mode, by_class in modes.items():
            values = " ".join(f"{v:.3f}" for v in by_class.values())
            print(f"{window:12} {mode:16} {values}")


def _print_fig19(users: int) -> None:
    f19 = hitrate.figure19(users_per_class=users)
    rows = [
        [c, f"{s['navigational']:.3f}", f"{s['non_navigational']:.3f}"]
        for c, s in f19.items()
    ]
    print(format_table(rows, ["class", "nav", "non-nav"]))


def _print_extensions() -> None:
    print("PocketWeb:", extensions.pocketweb_replay(users=12))
    print("Ads:", extensions.ads_coupling(users=12))
    print("Maps:", extensions.maps_commute())
    print("Suggest:", extensions.suggest_effort(users=8))
    print("PCM boot:", extensions.pcm_boot())
    print("Battery:", extensions.battery_life())


def build_parser(mode: Optional[str] = None) -> argparse.ArgumentParser:
    prog = "repro" if mode is None else f"repro {mode}"
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Regenerate Pocket Cloudlets (ASPLOS'11) tables and figures.",
    )
    parser.add_argument("artifact", help="artifact name, 'list', or 'all'")
    parser.add_argument(
        "--users",
        type=int,
        default=None,
        help="users per Table 6 class for replay artifacts (default 40; "
        "10 for daily-updates and baselines)",
    )
    parser.add_argument(
        "--manifest-out",
        metavar="PATH",
        default=None,
        help="write a run-manifest JSON (config, git SHA, wall time, peak RSS)",
    )
    if mode == "trace":
        parser.add_argument(
            "--trace-out",
            metavar="PATH",
            default="trace.jsonl",
            help="trace destination, JSON Lines (default: trace.jsonl)",
        )
    if mode in OBS_MODES:
        parser.add_argument(
            "--trace-capacity",
            type=int,
            default=obs_trace.DEFAULT_CAPACITY,
            help="ring-buffer size; older spans are evicted beyond this",
        )
    if mode == "profile":
        parser.add_argument(
            "--top",
            type=int,
            default=20,
            help="rows to show in the span-time breakdown (default 20)",
        )
    return parser


def _profile_table(records, top: int) -> str:
    """Aggregate trace records into the span-time breakdown table."""
    rows = obs_trace.span_breakdown(records)
    total_self = sum(r["self_s"] for r in rows) or 1.0
    body = [
        [
            r["name"],
            r["count"],
            f"{r['total_s']:.4f}",
            f"{r['self_s']:.4f}",
            f"{r['mean_ms']:.4f}",
            f"{r['self_s'] / total_self * 100:.1f}%",
        ]
        for r in rows[:top]
    ]
    return format_table(
        body, ["span", "count", "total s", "self s", "mean ms", "self %"]
    )


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] in SERVE_MODES:
        from repro.serve.cli import loadtest_main, serve_main

        verb = {"serve": serve_main, "loadtest": loadtest_main}[argv[0]]
        return verb(argv[1:])
    if argv and argv[0] == "top":
        from repro.serve.top import top_main

        return top_main(argv[1:])
    if argv and argv[0] == "bench-gate":
        from repro.obs.benchgate import main as benchgate_main

        return benchgate_main(argv[1:])
    if argv and argv[0] == "postmortem":
        from repro.obs.postmortem import postmortem_main

        return postmortem_main(argv[1:])
    if argv and argv[0] == "lint":
        from repro.analysis.cli import lint_main

        return lint_main(argv[1:])
    mode: Optional[str] = None
    if argv and argv[0] in OBS_MODES:
        mode = argv[0]
        argv = argv[1:]
    args = build_parser(mode).parse_args(argv)

    def users_for(artifact: str) -> int:
        if args.users is not None:
            return args.users
        return ARTIFACT_USERS.get(artifact, DEFAULT_USERS)

    commands: Dict[str, Callable[[], None]] = {
        "table1": _print_table1,
        "fig2": _print_fig2,
        "table2": _print_table2,
        "fig4": _print_fig4,
        "fig5": _print_fig5,
        "table3": _print_table3,
        "fig7": _print_fig7,
        "fig8": _print_fig8,
        "fig11": _print_fig11,
        "fig12": _print_fig12,
        "fig15": _print_fig15,
        "table4": _print_table4,
        "table5": _print_table5,
        "fig16": _print_fig16,
        "table6": _print_table6,
        "fig17": lambda: _print_fig17(users_for("fig17")),
        "fig18": lambda: _print_fig18(users_for("fig18")),
        "fig19": lambda: _print_fig19(users_for("fig19")),
        "mobile-vs-desktop": lambda: print(characterization.mobile_vs_desktop()),
        "daily-updates": lambda: print(
            hitrate.daily_updates(users_per_class=users_for("daily-updates"))
        ),
        "baselines": lambda: print(
            ablations.baseline_hit_rates(users_per_class=users_for("baselines"))
        ),
        "extensions": _print_extensions,
        "export": lambda: print(
            "\n".join(
                f"{name}: {path}"
                for name, path in __import__(
                    "repro.experiments.export", fromlist=["export_all"]
                ).export_all("figures_csv").items()
            )
        ),
    }
    if args.artifact == "list":
        for name in commands:
            print(name)
        return 0
    if args.artifact == "all":
        def runner() -> None:
            _run_all(commands)
    else:
        command = commands.get(args.artifact)
        if command is None:
            print(
                f"unknown artifact {args.artifact!r}; try 'list'",
                file=sys.stderr,
            )
            return 2
        runner = command

    if args.users is not None and args.users <= 0:
        print(
            f"repro: --users must be positive, got {args.users}",
            file=sys.stderr,
        )
        return 2

    tracer = None
    if mode in OBS_MODES:
        if args.trace_capacity <= 0:
            print(
                f"repro {mode}: --trace-capacity must be positive, "
                f"got {args.trace_capacity}",
                file=sys.stderr,
            )
            return 2
        from repro.experiments.common import clear_replay_cache

        clear_replay_cache()  # memoized replays would record no spans
        tracer = obs_trace.enable(capacity=args.trace_capacity)
    recorder = ManifestRecorder(
        args.artifact,
        config={
            # Under 'all' without --users each artifact used its default.
            "users": (
                args.users if args.artifact == "all"
                else users_for(args.artifact)
            ),
            "mode": mode or "run",
        },
    )
    try:
        with recorder:
            runner()
            if tracer is not None:
                recorder.add_metric("spans_dropped", tracer.spans_dropped)
    finally:
        if tracer is not None:
            obs_trace.disable()

    if mode == "trace":
        written = tracer.export_jsonl(args.trace_out)
        if tracer.dropped:
            print(
                f"warning: ring buffer evicted {tracer.dropped} records; "
                "raise --trace-capacity for a complete trace",
                file=sys.stderr,
            )
        print(f"wrote {written} trace records to {args.trace_out}")
    elif mode == "profile":
        print(f"\n=== span-time breakdown: {args.artifact} ===")
        print(_profile_table(tracer.records(), args.top))
    if args.manifest_out:
        recorder.manifest.write(args.manifest_out)
        print(f"wrote run manifest to {args.manifest_out}")
    return 0


def _run_all(commands: Dict[str, Callable[[], None]]) -> None:
    for name, command in commands.items():
        print(f"\n=== {name} ===")
        command()


if __name__ == "__main__":
    sys.exit(main())
