"""Always-on flight recorder: bounded black-box capture for the serve stack.

The live telemetry plane answers "what is happening"; this module
answers "what *was* happening when it went wrong".  A
:class:`FlightRecorder` rides along with a
:class:`~repro.serve.telemetry.ServeTelemetry` and keeps bounded ring
buffers of the recent past:

* completed request records (segment breakdown, tier, energy, per-request
  hop re-sum error);
* shed events with their typed reasons;
* per-bucket window rows (counts, shed fractions by reason, sojourn and
  queue-wait extremes, energy-ledger deltas);
* per-edge-node slice stats and propagation flushes;
* SLO burn alerts.

Everything is keyed by loop-clock timestamps the serve layer passes in,
so under :class:`~repro.serve.vclock.VirtualTimeLoop` two runs with the
same seed capture byte-identical histories.  Memory is strictly bounded:
every buffer is a ``deque(maxlen=...)``.  Bucket rows are not
accumulated here: each tick reads the closed bucket's
:class:`~repro.obs.timeseries.ServeBucket` from the telemetry ring.

Rows are built when they are read, not when they are captured.  The
hot rings hold compact entries: a request is its
:class:`~repro.obs.timeseries.RequestRecord`, a bucket row is a tuple of
the values read at the tick, and an edge row is a reference to the
read-only :meth:`~repro.edge.tier.EdgeTier.stats` snapshot of that tick.
:meth:`FlightRecorder.records`, :meth:`FlightRecorder.last_bucket` and
:meth:`FlightRecorder.dump_bundle` expand them into the record dicts a
bundle holds; sheds, alerts and flushes are stored as those dicts.

When a :class:`~repro.obs.triggers.TriggerEngine` decides an incident
happened, :meth:`FlightRecorder.dump_bundle` atomically writes a
versioned *postmortem bundle* — ``events.jsonl`` (time-sorted records)
plus ``manifest.json`` (git SHA, config, seed, trigger, analysis
windows) — into a fresh directory, renamed into place only once fully
written.  ``repro postmortem`` (:mod:`repro.obs.postmortem`) consumes
these bundles.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import threading
from collections import deque
from datetime import datetime, timezone
from typing import Any, Dict, List, Optional

from repro.obs.manifest import git_sha
from repro.obs.timeseries import RequestRecord

__all__ = [
    "BUNDLE_VERSION",
    "EVENTS_FILENAME",
    "MANIFEST_FILENAME",
    "FlightRecorder",
]

#: Bundle schema version (bumped on any incompatible record change).
BUNDLE_VERSION = 1
EVENTS_FILENAME = "events.jsonl"
MANIFEST_FILENAME = "manifest.json"

#: Default ring capacities.  Requests dominate; at ~300 bytes/record the
#: defaults bound the recorder to a few MB regardless of offered load.
DEFAULT_REQUEST_RING = 8192
DEFAULT_SHED_RING = 8192
DEFAULT_BUCKET_RING = 600
DEFAULT_EDGE_RING = 600
DEFAULT_ALERT_RING = 256
DEFAULT_FLUSH_RING = 1024

#: Sort order for records sharing a timestamp in the dumped bundle.
_KIND_ORDER = {
    "bucket": 0,
    "edge": 1,
    "flush": 2,
    "alert": 3,
    "trigger": 4,
    "request": 5,
    "shed": 6,
}


def _json_safe(value: Any) -> Any:
    """NaN/inf -> None so bundles stay strict JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _request_row(entry) -> Dict[str, Any]:
    """A request entry ``(seq, t, record)`` as its bundle record."""
    seq, t, record = entry
    request = record.request
    return {
        "kind": "request",
        "t": t,
        "trace_id": record.trace_id,
        "device_id": request.device_id,
        "key": request.key,
        "hit": record.hit,
        "shared": record.shared,
        "tier": record.tier,
        "edge_node": record.edge_node,
        "sojourn_s": record.sojourn_s,
        "segments": record.segments,
        "energy_j": record.energy_j,
        "hop_err_s": record.hop_err_s,
        "hop_err_j": record.hop_err_j,
        "seq": seq,
    }


def _bucket_row(entry) -> Dict[str, Any]:
    """A bucket entry (the values :meth:`FlightRecorder.on_tick` read)
    as its bundle record: the closed bucket's counts, shed fractions by
    reason, sojourn and queue-wait extremes, worst per-request re-sum
    errors, and the energy-ledger totals with their deltas."""
    (
        seq, t, t_prev, completed, hits, shed, reasons, sojourn_total,
        sojourn_max, queue_wait_max, hop_err_s_max, hop_err_j_max,
        attributed, timeline, last_attributed, last_timeline, requests,
    ) = entry
    events = completed + shed
    return {
        "completed": completed,
        "hits": hits,
        "shed": shed,
        "shed_reasons": dict(reasons) if reasons else {},
        "shed_fraction": shed / events if events else 0.0,
        "sojourn_mean_s": sojourn_total / completed if completed else None,
        "sojourn_max_s": sojourn_max if completed else None,
        "queue_wait_max_s": queue_wait_max if completed else None,
        "hop_err_s_max": hop_err_s_max,
        "hop_err_j_max": hop_err_j_max,
        "kind": "bucket",
        "t": t,
        "t_prev": t_prev,
        "ledger": {
            "attributed_j": attributed,
            "timeline_j": timeline,
            "d_attributed_j": attributed - last_attributed,
            "d_timeline_j": timeline - last_timeline,
            "error_j": attributed - timeline,
            "requests": requests,
        },
        "seq": seq,
    }


def _edge_row(entry) -> Dict[str, Any]:
    """An edge entry ``(seq, t, stats)`` as its bundle record."""
    seq, t, stats = entry
    return {
        "kind": "edge",
        "t": t,
        "sheds": stats.get("sheds", 0),
        "community_hits": stats.get("community_hits", 0),
        "community_misses": stats.get("community_misses", 0),
        "origin_fetches": stats.get("origin_fetches", 0),
        "nodes": stats.get("nodes", []),
        "seq": seq,
    }


#: Builds the record of a compact ring entry, per ring.  Entries of the
#: other rings (and any dict appended to these) are records already.
_ROW_BUILDERS = {
    "request": _request_row,
    "bucket": _bucket_row,
    "edge": _edge_row,
}


def _record(kind: str, entry) -> Dict[str, Any]:
    """The bundle record of one ring entry."""
    if isinstance(entry, dict):
        return entry
    return _ROW_BUILDERS[kind](entry)


class FlightRecorder:
    """Bounded black-box capture of the serving stack's recent past.

    Args:
        config: run configuration echoed into bundle manifests (the
            load-test flags, typically).
        seed: workload seed echoed into bundle manifests.
        triggers: optional :class:`~repro.obs.triggers.TriggerEngine`
            (duck-typed) consulted on every response/alert/tick.
        request_ring / shed_ring / bucket_ring / edge_ring / alert_ring /
            flush_ring: per-buffer capacities.

    Thread-safety: the capture hooks and :meth:`dump_bundle` serialize on
    one lock, so rings survive the same thread/task hammering the tracer
    rings do (``tests/obs/test_concurrency.py``).
    """

    def __init__(
        self,
        config: Optional[Dict[str, Any]] = None,
        seed: Optional[int] = None,
        triggers=None,
        request_ring: int = DEFAULT_REQUEST_RING,
        shed_ring: int = DEFAULT_SHED_RING,
        bucket_ring: int = DEFAULT_BUCKET_RING,
        edge_ring: int = DEFAULT_EDGE_RING,
        alert_ring: int = DEFAULT_ALERT_RING,
        flush_ring: int = DEFAULT_FLUSH_RING,
    ) -> None:
        for name, cap in (
            ("request_ring", request_ring),
            ("shed_ring", shed_ring),
            ("bucket_ring", bucket_ring),
            ("edge_ring", edge_ring),
            ("alert_ring", alert_ring),
            ("flush_ring", flush_ring),
        ):
            if cap <= 0:
                raise ValueError(f"{name} must be positive, got {cap}")
        self.config = dict(config) if config else {}
        self.seed = seed
        self.triggers = triggers
        self._lock = threading.Lock()
        self._rings: Dict[str, deque] = {
            "request": deque(maxlen=request_ring),
            "shed": deque(maxlen=shed_ring),
            "bucket": deque(maxlen=bucket_ring),
            "edge": deque(maxlen=edge_ring),
            "alert": deque(maxlen=alert_ring),
            "flush": deque(maxlen=flush_ring),
        }
        self._requests = self._rings["request"]
        self._buckets = self._rings["bucket"]
        self._edges = self._rings["edge"]
        #: records ever seen per ring (len(ring) + evicted)
        self.seen: Dict[str, int] = {kind: 0 for kind in self._rings}
        self._seq = 0
        self._last_tick_t: Optional[float] = None
        self._last_ledger = (0.0, 0.0)
        self.bundles: List[str] = []
        self._telemetry = None

    # -- wiring --------------------------------------------------------------

    def attach(self, telemetry) -> "FlightRecorder":
        """Hook into a :class:`~repro.serve.telemetry.ServeTelemetry`:
        the telemetry plane forwards sheds/responses/alerts and the
        per-bucket tick."""
        telemetry.flight = self
        telemetry.on_tick.append(self.on_tick)
        self._telemetry = telemetry
        return self

    def observe_edge(self, edge) -> None:
        """Record the edge tier's propagation flushes (the server wires
        this when it owns both the recorder and an edge tier)."""
        edge.on_flush = self.on_edge_flush

    # -- capture hooks -------------------------------------------------------

    def on_response(self, t: float, record: RequestRecord) -> None:
        """Record one completed request (called by the telemetry plane
        with the request's :class:`~repro.obs.timeseries.RequestRecord`,
        whose per-request re-sum errors the trigger engine watches).
        The record is kept as is; its row is built when read."""
        with self._lock:
            self._requests.append((self._seq, t, record))
            self._seq += 1
            self.seen["request"] += 1
        if self.triggers is not None:
            self.triggers.on_response(t, record, self)

    def on_shed(self, t: float, reply) -> None:
        """Record one typed shed event (called by the telemetry plane)."""
        trace = reply.trace
        edge_node = (
            trace.annotations.get("edge_node") if trace is not None else None
        )
        record = {
            "kind": "shed",
            "t": t,
            "reason": reply.reason,
            "trace_id": reply.trace_id,
            "device_id": reply.request.device_id,
            "key": reply.request.key,
            "edge_node": edge_node,
        }
        with self._lock:
            self._append("shed", record)

    def on_alerts(self, t: float, alerts) -> None:
        """Record fired SLO burn alerts (forwarded by the telemetry
        plane's bucket evaluation)."""
        with self._lock:
            for alert in alerts:
                record = dict(alert.to_dict())
                record["kind"] = "alert"
                record.setdefault("t", t)
                self._append("alert", record)
        if self.triggers is not None:
            self.triggers.on_alerts(t, alerts, self)

    def on_tick(self, t: float, telemetry) -> None:
        """Close the bucket that just ended: keep the values of its row
        (read from the telemetry ring, with the energy-ledger totals)
        and the tick's per-edge-node stats snapshot."""
        ledger = telemetry.energy.ledger
        attributed, timeline = ledger.attributed_j, ledger.timeline_j
        bucket = telemetry.closing_bucket()
        reasons = bucket.shed_reasons
        edge_stats_fn = getattr(telemetry, "edge_stats_fn", None)
        with self._lock:
            last_attributed, last_timeline = self._last_ledger
            self._buckets.append((
                self._seq, t, self._last_tick_t, bucket.completed,
                bucket.hits, bucket.shed, dict(reasons) if reasons else None,
                bucket.sojourn.total, bucket.sojourn.max,
                bucket.queue_wait.max, bucket.hop_err_s_max,
                bucket.hop_err_j_max, attributed, timeline,
                last_attributed, last_timeline, ledger.requests,
            ))
            self._seq += 1
            self.seen["bucket"] += 1
            self._last_tick_t = t
            self._last_ledger = (attributed, timeline)
            if edge_stats_fn is not None:
                # The snapshot is read-only: the tier builds a new one
                # when a counter moves, so a reference keeps this tick's
                # values.
                self._edges.append((self._seq, t, edge_stats_fn()))
                self._seq += 1
                self.seen["edge"] += 1
        if self.triggers is not None:
            self.triggers.on_tick(t, self, telemetry)

    def on_edge_flush(self, t: float, node_id: int, n_deltas: int) -> None:
        """Record one popularity-propagation flush from an edge node."""
        with self._lock:
            self._append(
                "flush",
                {"kind": "flush", "t": t, "node": node_id, "deltas": n_deltas},
            )

    def finalize(self, t: Optional[float] = None, force: bool = False) -> None:
        """Close out the run: emit the open bucket as a final (partial)
        row, then let the trigger engine settle — a
        pending trigger dumps with whatever baseline accumulated, and
        ``force=True`` dumps a manual bundle even without a trigger."""
        telemetry = self._telemetry
        if t is None:
            t = telemetry.t_last if telemetry is not None else 0.0
        if telemetry is not None:
            self.on_tick(t, telemetry)
        if self.triggers is not None:
            self.triggers.finalize(t, self, force=force)

    # -- read side -----------------------------------------------------------

    def records(self, kind: Optional[str] = None) -> List[Dict[str, Any]]:
        """The retained records of ring ``kind`` (every ring when None),
        oldest first, as the dicts a bundle holds; built on each call."""
        with self._lock:
            return self._records_locked(
                self._rings if kind is None else (kind,)
            )

    def last_bucket(self) -> Optional[Dict[str, Any]]:
        """The most recently closed per-bucket row (None before any)."""
        with self._lock:
            ring = self._buckets
            return _record("bucket", ring[-1]) if ring else None

    def dropped(self) -> Dict[str, int]:
        """Records evicted per ring since construction."""
        with self._lock:
            return {
                kind: self.seen[kind] - len(ring)
                for kind, ring in sorted(self._rings.items())
            }

    def status(self) -> Dict[str, Any]:
        """One JSON-ready health document (the ``flight`` section of the
        telemetry snapshot and the ``repro top`` flight line)."""
        with self._lock:
            retained = {
                kind: len(ring) for kind, ring in sorted(self._rings.items())
            }
            doc: Dict[str, Any] = {
                "retained": retained,
                "seen": dict(sorted(self.seen.items())),
                "dropped": {
                    kind: self.seen[kind] - retained[kind] for kind in retained
                },
                "bundles": list(self.bundles),
            }
        if self.triggers is not None:
            doc["pending_trigger"] = self.triggers.pending
            doc["triggers_exhausted"] = self.triggers.exhausted
        return doc

    # -- bundle dump ---------------------------------------------------------

    def dump_bundle(
        self,
        out_dir: str,
        trigger: Dict[str, Any],
        windows: Dict[str, List[float]],
    ) -> str:
        """Atomically write one versioned postmortem bundle.

        The bundle directory is built under a ``.tmp`` name and renamed
        into place only once both files are fully written, so a reader
        never sees a partial bundle.  Returns the bundle path.
        """
        with self._lock:
            records = self._records_locked(self._rings)
            dropped = {
                kind: self.seen[kind] - len(ring)
                for kind, ring in sorted(self._rings.items())
            }
            seen = dict(sorted(self.seen.items()))
        records.append(trigger)
        records.sort(
            key=lambda r: (r["t"], _KIND_ORDER.get(r["kind"], 9), r.get("seq", 0))
        )
        name = "flight-{kind}-t{ms}".format(
            kind=str(trigger.get("trigger", "manual")).replace("_", "-"),
            ms=int(round(float(trigger["t"]) * 1000)),
        )
        final = os.path.join(out_dir, name)
        n = 2
        while os.path.exists(final):
            final = os.path.join(out_dir, f"{name}-{n}")
            n += 1
        tmp = final + ".tmp"
        if os.path.exists(tmp):
            shutil.rmtree(tmp)
        os.makedirs(tmp)
        meta = {
            "kind": "meta",
            "t": float(trigger["t"]),
            "bundle_version": BUNDLE_VERSION,
            "n_records": len(records),
            "dropped": dropped,
        }
        with open(os.path.join(tmp, EVENTS_FILENAME), "w") as fh:
            fh.write(_dumps(meta) + "\n")
            for record in records:
                fh.write(_dumps(record) + "\n")
        manifest = {
            "name": "flight_bundle",
            "schema_version": 1,
            "bundle_version": BUNDLE_VERSION,
            "trigger": trigger,
            "windows": windows,
            "git_sha": git_sha(),
            "config": self.config,
            "seed": self.seed,
            "seen": seen,
            "dropped": dropped,
            "n_records": len(records),
            "events": EVENTS_FILENAME,
            # Wall-clock provenance: excluded from byte-identity checks.
            "started_at": datetime.now(timezone.utc).isoformat(),
        }
        with open(os.path.join(tmp, MANIFEST_FILENAME), "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.rename(tmp, final)
        with self._lock:
            self.bundles.append(final)
        return final

    # -- internals -----------------------------------------------------------

    def _append(self, kind: str, record: Dict[str, Any]) -> None:
        """Append under the caller's lock, stamping a sequence number so
        same-timestamp records sort stably in dumped bundles."""
        record["seq"] = self._seq
        self._seq += 1
        self.seen[kind] += 1
        self._rings[kind].append(record)

    def _records_locked(self, kinds) -> List[Dict[str, Any]]:
        """Records of the ``kinds`` rings, ring by ring (caller holds
        the lock)."""
        return [
            _record(kind, entry)
            for kind in kinds
            for entry in self._rings[kind]
        ]

    def record_trigger(self, record: Dict[str, Any]) -> None:
        """Stamp a trigger record's sequence number (the trigger engine
        hands the same dict to :meth:`dump_bundle` later)."""
        with self._lock:
            record["seq"] = self._seq
            self._seq += 1


def _dumps(record: Dict[str, Any]) -> str:
    return json.dumps(
        {key: _json_safe(value) for key, value in record.items()},
        sort_keys=True,
        allow_nan=False,
        default=_scrub,
    )


def _scrub(value: Any) -> Any:
    """Last-resort serializer for nested non-JSON values."""
    if isinstance(value, float):
        return None
    return str(value)
