"""Tests for the figure CSV exporter."""

import csv
import os

from repro.experiments import export


class TestExport:
    def test_fast_exporters_write_valid_csv(self, tmp_path):
        paths = export.export_all(
            str(tmp_path), only=["fig5", "fig7", "fig8", "fig11", "fig15"]
        )
        assert set(paths) == {"fig5", "fig7", "fig8", "fig11", "fig15"}
        for path in paths.values():
            assert os.path.exists(path)
            with open(path) as handle:
                rows = list(csv.reader(handle))
            assert len(rows) >= 2  # header + data
            width = len(rows[0])
            assert all(len(r) == width for r in rows)

    def test_fig5_cdf_monotone(self, tmp_path):
        path = export.export_fig5(str(tmp_path))
        with open(path) as handle:
            rows = list(csv.DictReader(handle))
        fractions = [float(r["user_fraction"]) for r in rows]
        assert all(b >= a for a, b in zip(fractions, fractions[1:]))

    def test_fig16_trace_covers_burst(self, tmp_path):
        path = export.export_fig16(str(tmp_path), samples=50)
        with open(path) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 50
        powers = [float(r["device_power_w"]) for r in rows]
        assert max(powers) > 1.4  # the 3G plateau
        assert min(powers) >= 0.9  # base power floor

    def test_selective_export(self, tmp_path):
        paths = export.export_all(str(tmp_path), only=["fig7"])
        assert list(paths) == ["fig7"]
