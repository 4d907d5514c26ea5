"""Tests for the per-request energy attribution primitives."""

import math

import pytest

from repro.obs.energy import (
    ENERGY_COMPONENTS,
    EnergyBreakdown,
    EnergyLedger,
    EnergyWindows,
    split_shared_radio,
)
from repro.obs.timeseries import BucketRing, RequestRecord, ServeBucket
from repro.serve.requests import ServeRequest, ServeResponse
from repro.sim.metrics import QueryOutcome, ServiceSource


class TestEnergyBreakdown:
    def test_components_sum_to_total(self):
        bd = EnergyBreakdown(
            ramp_j=1.1, transfer_j=2.2, tail_j=3.3,
            storage_j=0.4, render_j=0.5, base_j=0.6,
        )
        expected = ((1.1 + 2.2) + 3.3) + 0.4 + 0.5 + 0.6
        assert bd.total_j == expected
        assert bd.radio_j == (1.1 + 2.2) + 3.3

    def test_defaults_are_zero(self):
        bd = EnergyBreakdown()
        assert bd.total_j == 0.0
        assert bd.radio_j == 0.0

    def test_negative_component_rejected(self):
        for name in ENERGY_COMPONENTS:
            with pytest.raises(ValueError):
                EnergyBreakdown(**{name + "_j": -0.001})

    def test_with_radio_replaces_only_radio(self):
        bd = EnergyBreakdown(
            ramp_j=1.0, transfer_j=2.0, tail_j=3.0,
            storage_j=0.4, render_j=0.5, base_j=0.6,
        )
        out = bd.with_radio(0.5, 2.0, 1.5)
        assert out.ramp_j == 0.5
        assert out.tail_j == 1.5
        assert out.storage_j == bd.storage_j
        assert out.render_j == bd.render_j
        assert out.base_j == bd.base_j
        # Original is frozen / unchanged.
        assert bd.ramp_j == 1.0

    def test_dict_round_trip(self):
        bd = EnergyBreakdown(ramp_j=0.1, transfer_j=0.2, tail_j=0.3, base_j=0.9)
        raw = bd.to_dict()
        assert raw["total_j"] == bd.total_j
        assert EnergyBreakdown.from_dict(raw) == bd

    def test_from_dict_missing_keys_default_zero(self):
        assert EnergyBreakdown.from_dict({"ramp_j": 1.0}) == EnergyBreakdown(
            ramp_j=1.0
        )


class TestSplitSharedRadio:
    def test_no_riders_is_identity(self):
        leader, rider = split_shared_radio(1.0, 2.0, 3.0, 0)
        assert leader == (1.0, 2.0, 3.0)
        assert rider == (0.0, 0.0, 0.0)

    def test_transfer_stays_with_leader(self):
        leader, rider = split_shared_radio(1.0, 2.0, 3.0, 4)
        assert leader[1] == 2.0
        assert rider[1] == 0.0

    @pytest.mark.parametrize("riders", [1, 2, 3, 7, 100])
    def test_shares_resum_exactly(self, riders):
        """Conservation holds to float addition, not a tolerance: the
        leader's share is the remainder after the riders take theirs."""
        ramp, transfer, tail = 0.123456, 7.89, 2.5e-3
        leader, rider = split_shared_radio(ramp, transfer, tail, riders)
        assert leader[0] + riders * rider[0] == ramp
        assert leader[2] + riders * rider[2] == tail
        assert leader[1] + riders * rider[1] == transfer

    def test_ramp_and_tail_split_equally(self):
        leader, rider = split_shared_radio(3.0, 5.0, 6.0, 2)
        assert rider[0] == pytest.approx(1.0)
        assert rider[2] == pytest.approx(2.0)
        assert leader[0] == pytest.approx(1.0)
        assert leader[2] == pytest.approx(2.0)

    def test_negative_riders_rejected(self):
        with pytest.raises(ValueError):
            split_shared_radio(1.0, 1.0, 1.0, -1)


class TestEnergyLedger:
    def test_balanced_ledger_conserves(self):
        ledger = EnergyLedger()
        ledger.add(2.5, 2.5)
        ledger.add(0.5, 0.0)  # a rider's share...
        ledger.add(2.0, 2.5)  # ...balanced by its leader's remainder
        assert ledger.requests == 3
        assert ledger.conserved()
        assert ledger.conservation_error_j == pytest.approx(0.0, abs=1e-12)

    def test_drift_detected(self):
        ledger = EnergyLedger()
        ledger.add(3.0, 2.0)
        assert not ledger.conserved()
        assert ledger.conservation_error_j == pytest.approx(1.0)

    def test_tolerance_scales_with_total(self):
        ledger = EnergyLedger()
        ledger.add(1e9, 1e9 + 1e-4)
        # 1e-4 J drift on a 1e9 J timeline is within 1e-12 relative.
        assert ledger.conserved()
        assert not ledger.conserved(tol_j=1e-6)

    def test_snapshot_keys(self):
        ledger = EnergyLedger()
        ledger.add(1.0, 1.0)
        snap = ledger.snapshot()
        assert snap == {
            "attributed_radio_j": 1.0,
            "timeline_radio_j": 1.0,
            "conservation_error_j": 0.0,
            "requests": 1,
        }


class TestEnergyWindows:
    def make(self):
        ring = BucketRing(1.0, 60, ServeBucket)
        win = EnergyWindows(ring)

        def on_request(t, source, hit, breakdown, timeline_j):
            """Feed one attributed response the way the telemetry
            plane does: into the ring, then the ledger."""
            record = RequestRecord(ServeResponse(
                request=ServeRequest(device_id=1, key="q"),
                outcome=QueryOutcome(
                    query="q",
                    hit=hit,
                    source=ServiceSource(source),
                    latency_s=0.1,
                    energy_j=breakdown.total_j,
                    timestamp=t,
                ),
                enqueued_at=t - 0.1,
                started_at=t - 0.1,
                completed_at=t,
                energy=breakdown,
                radio_timeline_j=timeline_j,
            ))
            ring.at(t).add(record)
            win.on_request(record)

        win.feed = on_request
        return win

    def test_rolling_stats(self):
        win = self.make()
        hit = EnergyBreakdown(storage_j=0.4, base_j=0.1)  # 0.5 J
        miss = EnergyBreakdown(ramp_j=2.0, transfer_j=6.0, tail_j=2.0)  # 10 J
        for i in range(10):
            win.feed(float(i), "cache", True, hit, 0.0)
        win.feed(10.0, "3g", False, miss, miss.radio_j)
        rolling = win.rolling(11.0)
        assert rolling["hit_energy_j"] == pytest.approx(0.5)
        assert rolling["miss_energy_j"] == pytest.approx(10.0)
        assert rolling["hit_miss_energy_ratio"] == pytest.approx(20.0)
        assert rolling["energy_j_per_query"] == pytest.approx(15.0 / 11)
        assert set(rolling["sources"]) == {"cache", "3g"}
        assert rolling["sources"]["3g"]["energy_j"] == pytest.approx(10.0)
        assert rolling["conservation"]["requests"] == 11

    def test_ratio_nan_without_both_sides(self):
        win = self.make()
        win.feed(0.0, "cache", True, EnergyBreakdown(storage_j=0.5), 0.0)
        assert math.isnan(win.rolling(1.0)["hit_miss_energy_ratio"])

    def test_per_bucket_power(self):
        win = self.make()
        bd = EnergyBreakdown(transfer_j=3.0)
        win.feed(5.2, "3g", False, bd, bd.radio_j)
        win.feed(5.7, "3g", False, bd, bd.radio_j)
        rows = win.per_bucket(6.0)
        row = next(r for r in rows if r["t_start"] == 5.0)
        assert row["energy_j"] == pytest.approx(6.0)
        assert row["power_w"] == pytest.approx(6.0)  # 6 J over a 1 s bucket
        assert row["count"] == 2
        assert row["energy_j_per_query"] == pytest.approx(3.0)
        assert row["sources"]["3g"] == pytest.approx(6.0)

    def test_ledger_tracks_rider_leader_balance(self):
        win = self.make()
        full = EnergyBreakdown(ramp_j=1.0, transfer_j=4.0, tail_j=1.0)
        leader_share, rider_share = split_shared_radio(1.0, 4.0, 1.0, 1)
        leader = full.with_radio(*leader_share)
        rider = full.with_radio(*rider_share)
        win.feed(0.0, "3g", False, leader, full.radio_j)
        win.feed(0.0, "3g", False, rider, 0.0)
        assert win.ledger.conserved()

    def test_snapshot_shape(self):
        win = self.make()
        win.feed(0.0, "cache", True, EnergyBreakdown(storage_j=0.1), 0.0)
        snap = win.snapshot(1.0)
        assert set(snap) == {"rolling", "per_bucket"}
        assert snap["per_bucket"][0]["t_start"] == 0.0
