"""``repro postmortem``: turn a flight-recorder bundle into a diagnosis.

Reads one bundle dumped by :mod:`repro.obs.flight` (the directory, or
its ``events.jsonl`` directly), reconstructs the incident timeline, and
diffs the *incident* window against the *trailing baseline* window the
trigger engine captured after it:

* per-segment p99 latency deltas over
  :data:`~repro.serve.requests.SEGMENT_NAMES` (queue_wait,
  refresh_blocked, edge_hop, edge_serve, batch_wait, service);
* shed-rate deltas by typed reason, mapped onto the segment whose
  resource exhausted (``device-queue-full``/``server-busy`` shed at the
  queue, ``edge-queue-full`` sheds on the edge hop);
* per-tier and per-edge-node breakdowns, so a single hot cloudlet node
  is distinguishable from tier-wide contention.

The two channels are combined into a normalized *culprit score* per
segment — the latency channel alone misses incidents that shed instead
of queueing (an edge in-flight bound rejects immediately, adding no
latency), and the shed channel alone misses pure slowdowns.  The
machine verdict reuses :func:`repro.obs.benchgate.compare` on the two
windows' headline metrics, so "did the incident regress the watched
metrics beyond tolerance" means exactly what it means in CI.

Exit codes match bench-gate: 0 clean, 1 regression verdict, 2
usage/input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.benchgate import compare
from repro.obs.flight import EVENTS_FILENAME, MANIFEST_FILENAME
from repro.obs.registry import nearest_rank

__all__ = [
    "REASON_SEGMENT",
    "SEGMENT_NAMES",
    "analyze",
    "load_bundle",
    "postmortem_main",
    "render_report",
]

#: Mirror of :data:`repro.serve.requests.SEGMENT_NAMES` — obs must not
#: import serve (layering), and bundle records are the contract anyway.
SEGMENT_NAMES = (
    "queue_wait",
    "refresh_blocked",
    "edge_hop",
    "edge_serve",
    "batch_wait",
    "service",
)

TIER_NAMES = ("device", "edge", "origin")

#: Typed shed reason -> the segment whose resource ran out.
REASON_SEGMENT = {
    "device-queue-full": "queue_wait",
    "server-busy": "queue_wait",
    "edge-queue-full": "edge_hop",
}

DEFAULT_MIN_LATENCY_DELTA_S = 0.005


def load_bundle(path: str) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """``(manifest, records)`` from a bundle directory or events file."""
    if os.path.isdir(path):
        events_path = os.path.join(path, EVENTS_FILENAME)
        manifest_path = os.path.join(path, MANIFEST_FILENAME)
    else:
        events_path = path
        manifest_path = os.path.join(os.path.dirname(path), MANIFEST_FILENAME)
    if not os.path.exists(events_path):
        raise FileNotFoundError(f"no {EVENTS_FILENAME} at {events_path}")
    manifest: Dict[str, Any] = {}
    if os.path.exists(manifest_path):
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    records: List[Dict[str, Any]] = []
    with open(events_path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    if records and records[0].get("kind") == "meta":
        meta = records.pop(0)
        version = meta.get("bundle_version")
        if version is not None and version > manifest.get(
            "bundle_version", version
        ):
            raise ValueError(f"unsupported bundle_version {version}")
    return manifest, records


def percentile(values: List[float], q: float) -> Optional[float]:
    """Nearest-rank percentile (None on empty input)."""
    return nearest_rank(sorted(values), q) if values else None


def _in_window(t: float, window: List[float], half_open: bool) -> bool:
    lo, hi = window
    return (lo < t <= hi) if half_open else (lo <= t <= hi)


def _window_stats(
    requests: List[Dict[str, Any]],
    sheds: List[Dict[str, Any]],
    window: List[float],
) -> Dict[str, Any]:
    """Headline + per-segment/tier/node stats for one analysis window."""
    duration = max(window[1] - window[0], 1e-9)
    completed = len(requests)
    shed = len(sheds)
    events = completed + shed
    sojourns = [r["sojourn_s"] for r in requests]
    hits = sum(1 for r in requests if r["hit"])
    segments: Dict[str, Optional[float]] = {}
    for name in SEGMENT_NAMES:
        segments[name] = percentile(
            [r["segments"].get(name, 0.0) for r in requests], 99
        )
    shed_reasons: Dict[str, int] = {}
    for record in sheds:
        reason = record.get("reason", "unknown")
        shed_reasons[reason] = shed_reasons.get(reason, 0) + 1
    tiers: Dict[str, Dict[str, Any]] = {}
    for name in TIER_NAMES:
        rows = [r for r in requests if r.get("tier") == name]
        if rows:
            tiers[name] = {
                "n": len(rows),
                "sojourn_p99_s": percentile(
                    [r["sojourn_s"] for r in rows], 99
                ),
            }
    nodes: Dict[int, Dict[str, Any]] = {}
    for record in requests:
        node = record.get("edge_node")
        if node is not None:
            stats = nodes.setdefault(node, {"n": 0, "shed": 0, "sojourns": []})
            stats["n"] += 1
            stats["sojourns"].append(record["sojourn_s"])
    for record in sheds:
        node = record.get("edge_node")
        if node is not None:
            stats = nodes.setdefault(node, {"n": 0, "shed": 0, "sojourns": []})
            stats["shed"] += 1
    edge_nodes = {
        node: {
            "n": stats["n"],
            "shed": stats["shed"],
            "sojourn_p99_s": percentile(stats["sojourns"], 99),
        }
        for node, stats in sorted(nodes.items())
    }
    return {
        "window": list(window),
        "duration_s": window[1] - window[0],
        "completed": completed,
        "shed": shed,
        "shed_rate": shed / events if events else 0.0,
        "shed_per_s": shed / duration,
        "shed_reasons": shed_reasons,
        "hit_rate": hits / completed if completed else None,
        "sojourn_p50_s": percentile(sojourns, 50),
        "sojourn_p99_s": percentile(sojourns, 99),
        "segments_p99_s": segments,
        "tiers": tiers,
        "edge_nodes": edge_nodes,
    }


def _flat_metrics(stats: Dict[str, Any]) -> Dict[str, float]:
    """The bench-gate view of one window (None/NaN left out)."""
    out: Dict[str, float] = {"shed_rate": stats["shed_rate"]}
    for key in ("hit_rate", "sojourn_p50_s", "sojourn_p99_s"):
        if stats[key] is not None:
            out[key] = stats[key]
    for name, value in stats["segments_p99_s"].items():
        if value is not None:
            out[name + "_p99_s"] = value
    return out


def analyze(
    manifest: Dict[str, Any],
    records: List[Dict[str, Any]],
    max_regression: float = 0.25,
    min_latency_delta_s: float = DEFAULT_MIN_LATENCY_DELTA_S,
) -> Dict[str, Any]:
    """Full postmortem: windows, per-segment attribution, gate verdict."""
    trigger = manifest.get("trigger") or next(
        (r for r in records if r.get("kind") == "trigger"), None
    )
    if trigger is None:
        raise ValueError("bundle has no trigger record")
    windows = manifest.get("windows")
    if not windows:
        t0 = float(trigger["t"])
        windows = {"incident": [max(0.0, t0 - 60.0), t0], "baseline": [t0, t0]}
    incident_w = [float(x) for x in windows["incident"]]
    baseline_w = [float(x) for x in windows["baseline"]]

    requests = [r for r in records if r.get("kind") == "request"]
    sheds = [r for r in records if r.get("kind") == "shed"]
    buckets = [r for r in records if r.get("kind") == "bucket"]

    incident = _window_stats(
        [r for r in requests if _in_window(r["t"], incident_w, False)],
        [r for r in sheds if _in_window(r["t"], incident_w, False)],
        incident_w,
    )
    baseline = _window_stats(
        [r for r in requests if _in_window(r["t"], baseline_w, True)],
        [r for r in sheds if _in_window(r["t"], baseline_w, True)],
        baseline_w,
    )

    # Channel 1: per-segment p99 latency deltas (incident - baseline),
    # floored so float noise in sub-millisecond segments cannot win.
    # Deltas stay signed for the report, but attribution scores on the
    # magnitude: a spike-onset trigger (shed-spike fires at the *first*
    # bad bucket) puts the anomaly in the trailing window, so the
    # culprit is "the segment that moved", in either direction — only
    # the gate verdict below is directional.
    latency_delta: Dict[str, float] = {}
    for name in SEGMENT_NAMES:
        inc = incident["segments_p99_s"][name]
        base = baseline["segments_p99_s"][name]
        delta = (inc - base) if inc is not None and base is not None else 0.0
        latency_delta[name] = delta if abs(delta) >= min_latency_delta_s else 0.0

    # Channel 2: shed-rate deltas by typed reason, mapped onto the
    # segment whose resource exhausted.  Essential for incidents that
    # reject instead of queue (edge in-flight bounds shed immediately).
    shed_delta: Dict[str, float] = {name: 0.0 for name in SEGMENT_NAMES}
    inc_dur = max(incident["duration_s"], 1e-9)
    base_dur = max(baseline["duration_s"], 1e-9)
    reasons = set(incident["shed_reasons"]) | set(baseline["shed_reasons"])
    shed_reason_delta: Dict[str, float] = {}
    for reason in sorted(reasons):
        rate_delta = (
            incident["shed_reasons"].get(reason, 0) / inc_dur
            - baseline["shed_reasons"].get(reason, 0) / base_dur
        )
        shed_reason_delta[reason] = rate_delta
        segment = REASON_SEGMENT.get(reason)
        if segment is not None and rate_delta != 0:
            shed_delta[segment] += abs(rate_delta)

    lat_max = max(abs(v) for v in latency_delta.values())
    shed_max = max(shed_delta.values())
    scores: Dict[str, float] = {}
    for name in SEGMENT_NAMES:
        score = 0.0
        if lat_max > 0:
            score += abs(latency_delta[name]) / lat_max
        if shed_max > 0:
            score += shed_delta[name] / shed_max
        scores[name] = score
    culprit: Optional[Dict[str, Any]] = None
    best = max(scores.values())
    if best > 0:
        segment = next(n for n in SEGMENT_NAMES if scores[n] == best)
        culprit = {
            "segment": segment,
            "score": best,
            "latency_delta_s": latency_delta[segment],
            "shed_delta_per_s": shed_delta[segment],
            "reasons": {
                reason: delta
                for reason, delta in shed_reason_delta.items()
                if REASON_SEGMENT.get(reason) == segment and delta != 0
            },
        }

    rows, regressions = compare(
        {"postmortem": _flat_metrics(baseline)},
        {"postmortem": _flat_metrics(incident)},
        max_regression=max_regression,
    )
    span = [incident_w[0], baseline_w[1]]
    timeline = [
        {
            "t": b["t"],
            "completed": b["completed"],
            "shed": b["shed"],
            "shed_fraction": b["shed_fraction"],
            "sojourn_max_s": b["sojourn_max_s"],
            "queue_wait_max_s": b["queue_wait_max_s"],
        }
        for b in buckets
        if span[0] <= b["t"] <= span[1]
    ]
    return {
        "trigger": trigger,
        "windows": {"incident": incident_w, "baseline": baseline_w},
        "incident": incident,
        "baseline": baseline,
        "segments": {
            name: {
                "incident_p99_s": incident["segments_p99_s"][name],
                "baseline_p99_s": baseline["segments_p99_s"][name],
                "latency_delta_s": latency_delta[name],
                "shed_delta_per_s": shed_delta[name],
                "score": scores[name],
            }
            for name in SEGMENT_NAMES
        },
        "shed_reason_delta": shed_reason_delta,
        "culprit": culprit,
        "timeline": timeline,
        "gate": {
            "max_regression": max_regression,
            "rows": rows,
            "regressions": regressions,
        },
        "verdict": "regression" if regressions else "clean",
    }


def _fmt(value: Optional[float], spec: str = "8.4f") -> str:
    if value is None:
        return "       -"
    return format(value, spec)


def render_report(
    analysis: Dict[str, Any], manifest: Dict[str, Any], bundle: str
) -> str:
    """The human-facing postmortem report."""
    trigger = analysis["trigger"]
    incident, baseline = analysis["incident"], analysis["baseline"]
    lines = [
        f"postmortem: {bundle}",
        "  git_sha={sha}  seed={seed}".format(
            sha=manifest.get("git_sha"), seed=manifest.get("seed")
        ),
        "  trigger: {kind} at t={t:.3f}  detail={detail}".format(
            kind=trigger.get("trigger"),
            t=float(trigger["t"]),
            detail=json.dumps(trigger.get("detail", {}), sort_keys=True),
        ),
        "",
        "  window      [t0, t1]            events  shed_rate  p99_s",
    ]
    for name, stats in (("incident", incident), ("baseline", baseline)):
        lines.append(
            "  {name:<10}  [{a:8.2f},{b:8.2f}]  {n:6d}  {shed:8.1%}  {p99}".format(
                name=name,
                a=stats["window"][0],
                b=stats["window"][1],
                n=stats["completed"] + stats["shed"],
                shed=stats["shed_rate"],
                p99=_fmt(stats["sojourn_p99_s"]),
            )
        )
    lines += [
        "",
        "  segment          base_p99  incid_p99   delta_s  shed/s   score",
    ]
    for name, row in analysis["segments"].items():
        lines.append(
            "  {name:<15}  {base}  {inc}  {delta}  {shed:6.2f}  {score:6.2f}".format(
                name=name,
                base=_fmt(row["baseline_p99_s"]),
                inc=_fmt(row["incident_p99_s"]),
                delta=_fmt(row["latency_delta_s"]),
                shed=row["shed_delta_per_s"],
                score=row["score"],
            )
        )
    culprit = analysis["culprit"]
    if culprit is not None:
        lines += [
            "",
            "  culprit: {seg} (score {score:.2f}; p99 {d:+.4f}s; "
            "shed-rate moved {s:.2f}/s, by reason {reasons})".format(
                seg=culprit["segment"],
                score=culprit["score"],
                d=culprit["latency_delta_s"],
                s=culprit["shed_delta_per_s"],
                reasons=json.dumps(culprit["reasons"], sort_keys=True),
            ),
        ]
    else:
        lines += ["", "  culprit: none (no segment moved beyond the floor)"]
    for scope in ("tiers", "edge_nodes"):
        keys = sorted(
            set(incident[scope]) | set(baseline[scope]), key=str
        )
        if not keys:
            continue
        lines += ["", f"  {scope}:          base_n/p99        incid_n/p99"]
        for key in keys:
            base = baseline[scope].get(key, {})
            inc = incident[scope].get(key, {})
            lines.append(
                "    {key:<12}  {bn:5d} {bp}   {inz:5d} {ip}   shed {bs}->{isd}".format(
                    key=str(key),
                    bn=base.get("n", 0),
                    bp=_fmt(base.get("sojourn_p99_s")),
                    inz=inc.get("n", 0),
                    ip=_fmt(inc.get("sojourn_p99_s")),
                    bs=base.get("shed", 0),
                    isd=inc.get("shed", 0),
                )
            )
    timeline = analysis["timeline"]
    if timeline:
        lines += ["", "  timeline (per telemetry bucket):"]
        lines.append(
            "    t         done  shed  shed%   sojourn_max  queue_max"
        )
        t_trigger = float(trigger["t"])
        for row in timeline:
            mark = "  <- trigger" if row["t"] == t_trigger else ""
            lines.append(
                "    {t:8.2f}  {done:4d}  {shed:4d}  {frac:5.1%}  "
                "{smax}  {qmax}{mark}".format(
                    t=row["t"],
                    done=row["completed"],
                    shed=row["shed"],
                    frac=row["shed_fraction"],
                    smax=_fmt(row["sojourn_max_s"], "11.4f"),
                    qmax=_fmt(row["queue_wait_max_s"], "9.4f"),
                    mark=mark,
                )
            )
    gate = analysis["gate"]
    lines += [
        "",
        "  verdict: {v} ({n} watched metric(s), {r} regression(s) beyond "
        "{tol:.0%})".format(
            v=analysis["verdict"],
            n=len(gate["rows"]),
            r=len(gate["regressions"]),
            tol=gate["max_regression"],
        ),
    ]
    for row in gate["regressions"]:
        lines.append(
            "    REGRESSED {metric}: {base:.6g} -> {cand:.6g} "
            "({rel:+.1%} worse, {dir} is better)".format(
                metric=row["metric"],
                base=row["baseline"],
                cand=row["candidate"],
                rel=row["regression"],
                dir=row["direction"],
            )
        )
    return "\n".join(lines)


def postmortem_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro postmortem",
        description="Analyze a flight-recorder incident bundle.",
    )
    parser.add_argument(
        "bundle", help="bundle directory (or its events.jsonl)"
    )
    parser.add_argument(
        "--max-regression", type=float, default=0.25,
        help="verdict tolerance, bench-gate semantics (default 0.25)",
    )
    parser.add_argument(
        "--min-latency-delta", type=float,
        default=DEFAULT_MIN_LATENCY_DELTA_S, metavar="S",
        help="floor below which a segment p99 delta is noise "
        f"(default {DEFAULT_MIN_LATENCY_DELTA_S})",
    )
    parser.add_argument(
        "--json-out", metavar="PATH",
        help="write the machine-readable analysis document here",
    )
    args = parser.parse_args(argv)
    try:
        manifest, records = load_bundle(args.bundle)
        analysis = analyze(
            manifest,
            records,
            max_regression=args.max_regression,
            min_latency_delta_s=args.min_latency_delta,
        )
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"postmortem: cannot analyze {args.bundle}: {exc}",
              file=sys.stderr)
        return 2
    print(render_report(analysis, manifest, args.bundle))
    if args.json_out:
        doc = dict(analysis)
        doc["bundle"] = args.bundle
        doc["manifest"] = manifest
        with open(args.json_out, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")
    return 1 if analysis["gate"]["regressions"] else 0


if __name__ == "__main__":
    sys.exit(postmortem_main())
