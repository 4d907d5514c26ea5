"""Tests for the bench-trajectory regression gate (repro.obs.benchgate)."""

import json

import pytest

from repro.obs.benchgate import compare, flatten_metrics, load_benches, main


def _manifest(name, metrics):
    return {"name": name, "metrics": metrics}


def _bench_file(tmp_path, filename, benches):
    path = tmp_path / filename
    path.write_text(json.dumps({"benches": benches}))
    return str(path)


class TestFlatten:
    def test_nested_dicts_become_dotted_keys(self):
        flat = flatten_metrics(
            {"sweep": {"x10": {"sojourn_p99_s": 1.5}}, "hit_rate": 0.6}
        )
        assert flat == {"sweep.x10.sojourn_p99_s": 1.5, "hit_rate": 0.6}

    def test_non_numeric_leaves_dropped(self):
        flat = flatten_metrics({"note": "hello", "p99_s": 2.0, "ok": True})
        assert flat == {"p99_s": 2.0}


class TestCompare:
    def test_lower_better_regression_detected(self):
        base = {"lt": {"sojourn_p99_s": 1.0}}
        cand = {"lt": {"sojourn_p99_s": 2.0}}
        rows, regressions = compare(base, cand, max_regression=0.25)
        assert len(rows) == 1
        assert len(regressions) == 1
        assert regressions[0]["metric"] == "sojourn_p99_s"
        assert regressions[0]["regression"] == pytest.approx(1.0)

    def test_higher_better_regression_detected(self):
        base = {"lt": {"hit_rate": 0.6}}
        cand = {"lt": {"hit_rate": 0.3}}
        _, regressions = compare(base, cand, max_regression=0.25)
        assert len(regressions) == 1
        assert regressions[0]["direction"] == "higher"

    def test_improvement_is_not_a_regression(self):
        base = {"lt": {"sojourn_p99_s": 2.0, "hit_rate": 0.4}}
        cand = {"lt": {"sojourn_p99_s": 1.0, "hit_rate": 0.9}}
        rows, regressions = compare(base, cand, max_regression=0.25)
        assert len(rows) == 2
        assert regressions == []

    def test_within_tolerance_passes(self):
        base = {"lt": {"sojourn_p99_s": 1.0}}
        cand = {"lt": {"sojourn_p99_s": 1.2}}
        _, regressions = compare(base, cand, max_regression=0.25)
        assert regressions == []

    def test_unwatched_metrics_ignored(self):
        base = {"lt": {"requests": 100.0}}
        cand = {"lt": {"requests": 999999.0}}
        rows, regressions = compare(base, cand)
        assert rows == []
        assert regressions == []

    def test_nested_sweep_keys_watched_by_tail(self):
        base = {"lt": {"sweep.x10.sojourn_p99_s": 1.0}}
        cand = {"lt": {"sweep.x10.sojourn_p99_s": 10.0}}
        _, regressions = compare(base, cand)
        assert len(regressions) == 1


class TestMain:
    def test_exit_1_on_injected_p99_regression(self, tmp_path, capsys):
        baseline = _bench_file(
            tmp_path, "base.json",
            [_manifest("loadtest", {"sojourn_p99_s": 1.0, "hit_rate": 0.6})],
        )
        candidate = _bench_file(
            tmp_path, "cand.json",
            [_manifest("loadtest", {"sojourn_p99_s": 3.0, "hit_rate": 0.6})],
        )
        code = main(["--baseline", baseline, "--candidate", candidate])
        assert code == 1
        assert "sojourn_p99_s" in capsys.readouterr().out

    def test_verbose_labels_each_row_by_its_sign(self, tmp_path, capsys):
        baseline = _bench_file(
            tmp_path, "base.json",
            [_manifest("loadtest", {"sojourn_p99_s": 1.0, "hit_rate": 0.5})],
        )
        candidate = _bench_file(
            tmp_path, "cand.json",
            [_manifest("loadtest", {"sojourn_p99_s": 3.0, "hit_rate": 0.6})],
        )
        code = main(
            ["--baseline", baseline, "--candidate", candidate, "--verbose"]
        )
        assert code == 1
        rows = {
            line.split()[0]: line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("loadtest:")
        }
        assert "(20.0% better, higher is better)  ok" in rows["loadtest:hit_rate"]
        assert (
            "(200.0% worse, lower is better)  REGRESSED"
            in rows["loadtest:sojourn_p99_s"]
        )

    def test_exit_0_when_clean(self, tmp_path):
        benches = [_manifest("loadtest", {"sojourn_p99_s": 1.0})]
        baseline = _bench_file(tmp_path, "base.json", benches)
        candidate = _bench_file(tmp_path, "cand.json", benches)
        assert main(["--baseline", baseline, "--candidate", candidate]) == 0

    def test_exit_2_with_no_common_benches(self, tmp_path):
        baseline = _bench_file(
            tmp_path, "base.json", [_manifest("a", {"p99_s": 1.0})]
        )
        candidate = _bench_file(
            tmp_path, "cand.json", [_manifest("b", {"p99_s": 1.0})]
        )
        assert main(["--baseline", baseline, "--candidate", candidate]) == 2

    def test_single_manifest_files_accepted(self, tmp_path):
        base = tmp_path / "base.json"
        base.write_text(
            json.dumps(_manifest("loadtest", {"sojourn_p99_s": 1.0}))
        )
        cand = tmp_path / "cand.json"
        cand.write_text(
            json.dumps(_manifest("loadtest", {"sojourn_p99_s": 1.05}))
        )
        assert main(["--baseline", str(base), "--candidate", str(cand)]) == 0


class TestLoadBenches:
    def test_aggregate_and_single_shapes(self, tmp_path):
        aggregate = _bench_file(
            tmp_path, "agg.json", [_manifest("x", {"m": 1.0})]
        )
        assert set(load_benches(aggregate)) == {"x"}
        single = tmp_path / "one.json"
        single.write_text(json.dumps(_manifest("y", {"m": 1.0})))
        assert set(load_benches(str(single))) == {"y"}


class TestEnergyWatch:
    def test_joules_per_query_regresses_upward(self):
        base = {"lt": {"energy_j_per_query": 1.0}}
        cand = {"lt": {"energy_j_per_query": 2.0}}
        _, regressions = compare(base, cand, max_regression=0.25)
        assert len(regressions) == 1
        assert regressions[0]["direction"] == "lower"

    def test_hit_miss_ratio_regresses_downward(self):
        base = {"lt": {"hit_miss_energy_ratio": 23.0}}
        cand = {"lt": {"hit_miss_energy_ratio": 10.0}}
        _, regressions = compare(base, cand, max_regression=0.25)
        assert len(regressions) == 1
        assert regressions[0]["direction"] == "higher"

    def test_battery_and_charge_projections_watched(self):
        base = {
            "lt": {"battery_day_fraction": 0.05, "queries_per_charge": 1000.0}
        }
        cand = {
            "lt": {"battery_day_fraction": 0.20, "queries_per_charge": 200.0}
        }
        _, regressions = compare(base, cand, max_regression=0.25)
        assert {r["metric"] for r in regressions} == {
            "battery_day_fraction",
            "queries_per_charge",
        }

    def test_nested_energy_sweep_keys_watched(self):
        base = {"lt": {"sweep.x10.energy_j_p99": 1.0}}
        cand = {"lt": {"sweep.x10.energy_j_p99": 5.0}}
        _, regressions = compare(base, cand)
        assert len(regressions) == 1

    def test_improved_energy_is_not_a_regression(self):
        base = {"lt": {"energy_j_per_query": 2.0, "hit_miss_energy_ratio": 10.0}}
        cand = {"lt": {"energy_j_per_query": 1.0, "hit_miss_energy_ratio": 23.0}}
        rows, regressions = compare(base, cand)
        assert len(rows) == 2
        assert regressions == []
