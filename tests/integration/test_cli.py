"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table2" in out and "fig17" in out

    def test_unknown_artifact(self, capsys):
        assert main(["nonsense"]) == 2
        assert "unknown artifact" in capsys.readouterr().err

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "flash" in capsys.readouterr().out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        assert "web_search" in capsys.readouterr().out

    def test_fig2(self, capsys):
        assert main(["fig2"]) == 0
        assert "2018" in capsys.readouterr().out

    def test_fig15(self, capsys):
        assert main(["fig15"]) == 0
        out = capsys.readouterr().out
        assert "pocketsearch" in out and "edge" in out

    def test_table4(self, capsys):
        assert main(["table4"]) == 0
        assert "browser_rendering_s" in capsys.readouterr().out

    def test_fig5_uses_default_log(self, capsys):
        assert main(["fig5"]) == 0
        assert "mean_repeat_rate" in capsys.readouterr().out

    def test_fig17_small(self, capsys):
        assert main(["fig17", "--users", "4"]) == 0
        out = capsys.readouterr().out
        assert "full" in out and "community" in out


class TestObservabilityCli:
    def test_trace_writes_jsonl(self, capsys, tmp_path):
        import json

        out = str(tmp_path / "trace.jsonl")
        assert main(["trace", "fig17", "--users", "2", "--trace-out", out]) == 0
        assert "wrote" in capsys.readouterr().out
        with open(out) as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
        # The first line is the export's meta record; spans follow.
        meta, records = lines[0], lines[1:]
        assert meta["kind"] == "meta"
        assert meta["spans_dropped"] == 0
        assert meta["n_records"] == len(records)
        names = {r["name"] for r in records}
        assert "serve_query" in names
        assert "radio_state" in names
        # Nested spans: serve_query sub-steps point at their parent.
        parents = {r["span_id"] for r in records}
        assert any(
            r["parent_id"] in parents
            for r in records
            if r["name"] == "database_read"
        )

    def test_trace_restores_noop_tracer(self, tmp_path):
        from repro.obs.trace import NULL_TRACER, get_tracer

        out = str(tmp_path / "trace.jsonl")
        assert main(["trace", "table2", "--trace-out", out]) == 0
        assert get_tracer() is NULL_TRACER

    def test_profile_prints_breakdown(self, capsys):
        assert main(["profile", "fig17", "--users", "2"]) == 0
        out = capsys.readouterr().out
        assert "span-time breakdown" in out
        assert "serve_query" in out
        assert "self %" in out

    def test_manifest_out(self, capsys, tmp_path):
        import json

        path = str(tmp_path / "m.json")
        assert main(["table2", "--manifest-out", path]) == 0
        with open(path) as fh:
            manifest = json.load(fh)
        assert manifest["name"] == "table2"
        assert manifest["config"]["users"] == 40
        assert manifest["wall_time_s"] >= 0


class TestUsersFlag:
    """``--users`` reaches every replay artifact, each artifact keeps its
    own default without it, and the manifest records the value used."""

    @pytest.fixture
    def users_seen(self, monkeypatch):
        from repro.experiments import ablations, hitrate

        seen = {}

        def recorder(name):
            def run(users_per_class, **kwargs):
                seen[name] = users_per_class
                return {}

            return run

        monkeypatch.setattr(hitrate, "daily_updates", recorder("daily-updates"))
        monkeypatch.setattr(
            ablations, "baseline_hit_rates", recorder("baselines")
        )
        monkeypatch.setattr(hitrate, "figure17", recorder("fig17"))
        return seen

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["daily-updates"], 10),
            (["daily-updates", "--users", "2"], 2),
            (["baselines"], 10),
            (["baselines", "--users", "3"], 3),
            (["fig17"], 40),
            (["fig17", "--users", "5"], 5),
        ],
    )
    def test_replay_artifact_users(
        self, users_seen, tmp_path, capsys, argv, expected
    ):
        import json

        path = str(tmp_path / "m.json")
        assert main(argv + ["--manifest-out", path]) == 0
        assert users_seen == {argv[0]: expected}
        with open(path) as fh:
            assert json.load(fh)["config"]["users"] == expected

    @pytest.mark.parametrize(
        "argv",
        [
            ["baselines", "--users", "0"],
            ["daily-updates", "--users", "0"],
            ["fig17", "--users", "-1"],
        ],
    )
    def test_non_positive_users_rejected(self, users_seen, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"repro: --users must be positive, got {argv[-1]}\n"
        )
        assert captured.out == ""
        assert users_seen == {}
