"""Tests for the ``repro top`` terminal dashboard (repro.serve.top)."""

import json

from repro.obs.slo import SLOPolicy, SLORule
from repro.serve.telemetry import ServeTelemetry
from repro.serve.top import extract_serve_snapshot, render_top, top_main

from .test_telemetry import _response, _shed


def _snapshot(slo=False):
    policy = None
    if slo:
        policy = SLOPolicy(
            rules=(SLORule("p99", "latency", objective=0.9, threshold_s=0.5),),
            long_window_s=10.0,
            short_window_s=2.0,
        )
    telemetry = ServeTelemetry(slo_policy=policy)
    for i in range(6):
        t = 0.3 + i * 0.5
        telemetry.on_submit(t, inflight=1)
        telemetry.on_response(
            t + 0.1,
            _response(trace_id=i + 1, enqueued_at=t, completed_at=t + 0.1,
                      hit=(i % 2 == 0), key=f"query-{i}"),
            inflight=0,
        )
    telemetry.on_shed(3.5, _shed(3.5))
    telemetry.finalize()
    return telemetry.snapshot()


class TestExtract:
    def test_bare_snapshot_accepted(self):
        snap = _snapshot()
        assert extract_serve_snapshot(snap) is snap

    def test_metrics_json_document_unwrapped(self):
        snap = _snapshot()
        assert extract_serve_snapshot({"metrics": {}, "serve": snap}) is snap

    def test_no_telemetry_returns_none(self):
        assert extract_serve_snapshot({"metrics": {}}) is None
        assert extract_serve_snapshot({"serve": {"oops": 1}}) is None


class TestRenderTop:
    def test_headline_and_sparklines(self):
        text = render_top(_snapshot())
        assert "repro top" in text
        assert "hit 50.0%" in text
        assert "completed" in text
        assert "shed" in text
        # Sparkline glyphs present for the per-bucket series.
        assert any(glyph in text for glyph in "▁▂▃▄▅▆▇█")

    def test_exemplars_table_has_segment_columns(self):
        text = render_top(_snapshot())
        assert "slowest requests in window" in text
        assert "queue" in text and "batch" in text and "service" in text
        assert "query-" in text

    def test_slo_rules_section_when_policy_present(self):
        text = render_top(_snapshot(slo=True))
        assert "SLO rules" in text
        assert "p99" in text

    def test_empty_snapshot_does_not_crash(self):
        text = render_top({"rolling": {}})
        assert "repro top" in text


class TestTopMain:
    def test_snapshot_file_renders_once(self, tmp_path, capsys):
        path = tmp_path / "snap.json"
        path.write_text(json.dumps({"serve": _snapshot()}))
        assert top_main(["--snapshot", str(path)]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "slowest requests in window" in out

    def test_snapshot_without_telemetry_exits_2(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"metrics": {}}))
        assert top_main(["--snapshot", str(path)]) == 2
        assert "no telemetry" in capsys.readouterr().err

    def test_unreachable_url_exits_1(self, capsys):
        # Port 1 is reserved and nothing listens on it.
        code = top_main(["--url", "http://127.0.0.1:1", "--frames", "1",
                         "--interval", "0"])
        assert code == 1
        assert "repro top:" in capsys.readouterr().err


def _energy_snapshot():
    from repro.obs.energy import EnergyBreakdown

    from .test_telemetry import _energy_response

    telemetry = ServeTelemetry(battery_capacity_j=200.0)
    hit = EnergyBreakdown(storage_j=0.3, base_j=0.2)
    miss = EnergyBreakdown(ramp_j=1.0, transfer_j=7.0, tail_j=2.0)
    for i in range(8):
        t = 0.5 + i * 0.5
        is_hit = i % 2 == 0
        energy = hit if is_hit else miss
        telemetry.on_response(
            t,
            _energy_response(
                i + 1, t, is_hit, energy,
                0.0 if is_hit else energy.radio_j, device_id=i % 3,
            ),
            inflight=0,
        )
    telemetry.finalize()
    return telemetry.snapshot()


class TestRenderTopEnergy:
    def test_energy_panel_renders(self):
        text = render_top(_energy_snapshot())
        assert "J/query" in text
        assert "miss/hit" in text
        assert "radio ledger:" in text
        assert "power (W)" in text
        # Per-source wattage sparkline (truncated source label).
        assert "3g" in text
        # ASCII radio power trace over the window's buckets.
        assert "radio power trace (window)" in text
        assert "#" in text

    def test_battery_section_renders(self):
        text = render_top(_energy_snapshot())
        assert "batteries: 3 devices" in text
        assert "queries/charge" in text
        assert "burn/day" in text

    def test_snapshot_without_energy_omits_panel(self):
        text = render_top(_snapshot())
        # No attributed responses: headline shows placeholders and the
        # ledger/battery/trace sections stay absent.
        assert "radio ledger:" not in text
        assert "batteries:" not in text
        assert "radio power trace" not in text
