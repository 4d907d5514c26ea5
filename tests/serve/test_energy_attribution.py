"""The energy attribution tentpole: per-request joules through the serve
path, with the conservation invariant held under both clocks.

Every attributed response carries an :class:`EnergyBreakdown`; when
concurrent identical misses batch onto one radio flight, the wake/tail
energy is re-split across the participants.  The invariant: summing the
attributed radio joules across all responses reproduces the simulated
radio timeline's spend to 1e-9 — attribution moves energy around, it
never creates or destroys it.  And it is observe-only: the model's
``QueryOutcome.energy_j`` numbers are exactly what they were offline.
"""

import asyncio

import pytest

from repro.obs.energy import EnergyBreakdown
from repro.obs.registry import MetricsRegistry
from repro.serve import LoadGenConfig, ServeConfig, run_loadtest
from repro.serve.backends import BackendResult
from repro.serve.requests import ServeRequest, ServeResponse
from repro.serve.server import CloudletServer
from repro.serve.vclock import run_simulated
from repro.sim.metrics import QueryOutcome, ServiceSource

TOLERANCE = 1e-9

#: The stub's isolated miss energy: radio (1.5 + 6.0 + 2.5 = 10 J) + base.
MISS_ENERGY = EnergyBreakdown(
    ramp_j=1.5, transfer_j=6.0, tail_j=2.5, base_j=1.8
)
HIT_ENERGY = EnergyBreakdown(storage_j=0.3, base_j=0.2)


class EnergyStubBackend:
    """Scripted backend attaching fixed energy breakdowns."""

    def __init__(self, cached=frozenset(), with_energy=True, radio_s=1.5):
        self.cached = set(cached)
        self.with_energy = with_energy
        self.radio_s = radio_s

    def serve(self, request: ServeRequest) -> BackendResult:
        hit = request.key in self.cached
        energy = HIT_ENERGY if hit else MISS_ENERGY
        outcome = QueryOutcome(
            query=request.key,
            hit=hit,
            source=ServiceSource.CACHE if hit else ServiceSource.RADIO_3G,
            latency_s=0.1 if hit else 2.0,
            energy_j=energy.total_j,
            timestamp=request.timestamp,
        )
        return BackendResult(
            outcome=outcome,
            radio_s=0.0 if hit else self.radio_s,
            energy=energy if self.with_energy else None,
        )


def _server(backend_factory, **config):
    return CloudletServer(
        backend_factory,
        ServeConfig(**config) if config else ServeConfig(),
        registry=MetricsRegistry(),
    )


async def _burst(server, n_devices, key="shared-miss"):
    """Submit the same key from ``n_devices`` devices at once."""
    futures = [
        server.submit(ServeRequest(device_id=uid, key=key))
        for uid in range(n_devices)
    ]
    await server.drain()
    replies = [f.result() for f in futures]
    await server.close()
    return server, replies


def _assert_batched_conservation(server, replies, n_devices):
    responses = [r for r in replies if isinstance(r, ServeResponse)]
    assert len(responses) == n_devices
    leaders = [r for r in responses if not r.shared_fetch]
    riders = [r for r in responses if r.shared_fetch]
    assert len(leaders) == 1
    assert len(riders) == n_devices - 1

    leader, full = leaders[0], MISS_ENERGY
    # The transfer stays with the leader; riders carry none of it.
    assert leader.energy.transfer_j == full.transfer_j
    for rider in riders:
        assert rider.energy.transfer_j == 0.0
        assert rider.energy.ramp_j == pytest.approx(full.ramp_j / n_devices)
        assert rider.energy.tail_j == pytest.approx(full.tail_j / n_devices)
        # Non-radio components are untouched by the re-split.
        assert rider.energy.base_j == full.base_j
        # Riders report no timeline spend; the leader reports it all.
        assert rider.radio_timeline_j == 0.0
        assert rider.trace.annotations["batch_role"] == "rider"
    assert leader.radio_timeline_j == pytest.approx(full.radio_j)
    assert leader.trace.annotations["batch_riders"] == n_devices - 1

    # Conservation: attributed radio joules re-sum to the one flight.
    attributed = sum(r.energy.radio_j for r in responses)
    assert attributed == pytest.approx(full.radio_j, abs=TOLERANCE)
    ledger = server.telemetry.energy.ledger
    assert ledger.requests == n_devices
    assert ledger.timeline_j == pytest.approx(full.radio_j, abs=TOLERANCE)
    assert ledger.conserved()

    # Observe-only: the model's outcome numbers are untouched — every
    # participant still records its full isolated energy.
    for response in responses:
        assert response.outcome.energy_j == full.total_j
        # The trace carries the attributed breakdown.
        assert response.trace.energy == response.energy


class TestBatchedAttributionVirtualClock:
    @pytest.mark.parametrize("n_devices", [2, 3, 7])
    def test_shared_flight_conserves_energy(self, n_devices):
        async def scenario():
            server = _server(lambda uid: EnergyStubBackend())
            return await _burst(server, n_devices)

        server, replies = run_simulated(scenario())
        _assert_batched_conservation(server, replies, n_devices)

    def test_late_rider_joins_final_split(self):
        """Regression for the miss-batch accounting: the rider count is
        only final at flight completion, so a rider arriving mid-flight
        must still be counted in the leader's split."""

        async def scenario():
            server = _server(lambda uid: EnergyStubBackend(radio_s=1.5))
            first = server.submit(ServeRequest(device_id=0, key="k"))
            # Let the leader's fetch get airborne, then join it.
            await asyncio.sleep(0.5)
            second = server.submit(ServeRequest(device_id=1, key="k"))
            await server.drain()
            replies = [first.result(), second.result()]
            await server.close()
            return server, replies

        server, replies = run_simulated(scenario())
        _assert_batched_conservation(server, replies, 2)

    def test_sequential_flights_do_not_share(self):
        """A miss after the flight lands starts a fresh solo fetch with
        full isolated attribution."""

        async def scenario():
            server = _server(lambda uid: EnergyStubBackend(radio_s=0.5))
            first = server.submit(ServeRequest(device_id=0, key="k"))
            await server.drain()
            second = server.submit(ServeRequest(device_id=1, key="k"))
            await server.drain()
            replies = [first.result(), second.result()]
            await server.close()
            return server, replies

        server, replies = run_simulated(scenario())
        assert all(not r.shared_fetch for r in replies)
        for reply in replies:
            assert reply.energy == MISS_ENERGY
            assert reply.radio_timeline_j == pytest.approx(MISS_ENERGY.radio_j)
        ledger = server.telemetry.energy.ledger
        assert ledger.timeline_j == pytest.approx(2 * MISS_ENERGY.radio_j)
        assert ledger.conserved()

    def test_hits_attribute_without_radio(self):
        async def scenario():
            server = _server(lambda uid: EnergyStubBackend(cached={"q"}))
            future = server.submit(ServeRequest(device_id=1, key="q"))
            await server.drain()
            reply = future.result()
            await server.close()
            return server, reply

        server, reply = run_simulated(scenario())
        assert reply.energy == HIT_ENERGY
        assert reply.energy.radio_j == 0.0
        assert reply.radio_timeline_j == 0.0
        assert server.telemetry.energy.ledger.conserved()

    def test_rider_without_leader_energy_accounts_solo(self):
        """When the leader's backend carries no energy components, a
        rider keeps its isolated breakdown and reports its own timeline
        — pessimistic but self-consistent (the ledger still balances)."""

        async def scenario():
            server = _server(
                lambda uid: EnergyStubBackend(with_energy=(uid == 1))
            )
            leader = server.submit(ServeRequest(device_id=0, key="k"))
            await asyncio.sleep(0.1)
            rider = server.submit(ServeRequest(device_id=1, key="k"))
            await server.drain()
            replies = [leader.result(), rider.result()]
            await server.close()
            return server, replies

        server, (leader, rider) = run_simulated(scenario())
        assert not leader.shared_fetch and rider.shared_fetch
        assert leader.energy is None
        assert rider.energy == MISS_ENERGY
        assert rider.radio_timeline_j == pytest.approx(MISS_ENERGY.radio_j)
        assert server.telemetry.energy.ledger.conserved()


class TestBatchedAttributionWallClock:
    """The same invariant under a stock asyncio loop: attribution is a
    property of the serve path, not of the virtual clock."""

    def test_shared_flight_conserves_energy(self):
        async def scenario():
            server = _server(
                lambda uid: EnergyStubBackend(), time_scale=0.01
            )
            return await _burst(server, 3)

        server, replies = asyncio.run(scenario())
        _assert_batched_conservation(server, replies, 3)

    def test_throughput_mode_no_sleeps(self):
        """time_scale=0.0 collapses every sleep; the split still runs at
        flight completion with whatever riders actually joined."""

        async def scenario():
            server = _server(
                lambda uid: EnergyStubBackend(), time_scale=0.0
            )
            return await _burst(server, 4)

        server, replies = asyncio.run(scenario())
        responses = [r for r in replies if isinstance(r, ServeResponse)]
        assert len(responses) == 4
        attributed = sum(r.energy.radio_j for r in responses)
        ledger = server.telemetry.energy.ledger
        assert attributed == pytest.approx(ledger.timeline_j, abs=TOLERANCE)
        assert ledger.conserved()


class TestLoadtestEnergyReport:
    """End-to-end over the real engine: the loadtest report carries the
    energy plane and the run-level conservation verdict."""

    def test_report_energy_and_battery_fields(self, small_log):
        report, _ = run_loadtest(
            small_log,
            LoadGenConfig(duration_s=3600.0, rate_multiplier=20.0, seed=7),
            ServeConfig(queue_depth=64, max_inflight=4096),
            battery_capacity_j=500.0,
        )
        assert report.completed > 0
        assert report.energy_conserved is True
        assert report.attributed_radio_j == pytest.approx(
            report.timeline_radio_j,
            abs=max(TOLERANCE, 1e-12 * report.timeline_radio_j),
        )
        assert report.energy_j_total > 0
        assert report.energy_j_per_query > 0
        assert report.energy_j_p50 <= report.energy_j_p99
        # The online Figure 15b: a 3G miss costs far more than a hit.
        if report.misses and report.hits:
            assert report.hit_miss_energy_ratio > 5.0
        # Battery projections from the attributed joules.
        assert report.battery_capacity_j == 500.0
        assert 0.0 <= report.battery_min_level <= 1.0
        assert report.battery_day_fraction > 0
        assert report.queries_per_charge is not None
        metrics = report.to_metrics()
        assert metrics["energy_conserved"] == 1.0
        assert metrics["energy_j_per_query"] == report.energy_j_per_query

    def test_energy_attribution_is_deterministic(self, small_log):
        kwargs = dict(
            loadgen=LoadGenConfig(
                duration_s=600.0, rate_multiplier=100.0, seed=7, max_devices=4
            ),
            serve_config=ServeConfig(queue_depth=16, max_inflight=256),
        )
        a, _ = run_loadtest(small_log, **kwargs)
        b, _ = run_loadtest(small_log, **kwargs)
        assert a.energy_j_total == b.energy_j_total
        assert a.attributed_radio_j == b.attributed_radio_j
        assert a.timeline_radio_j == b.timeline_radio_j
