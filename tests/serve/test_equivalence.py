"""Differential tests: the online serve path vs the offline replay.

The serving layer's core guarantee: a deterministic simulated-time
serve over a log produces *identical* hit/miss/latency accounting to
``run_replay`` — queueing, sleeps, and cross-device interleaving shape
serve-layer metrics only, never the model's numbers.  These tests hold
the tentpole to that bar (per-user exact counts, totals within 1e-9,
bit-identical percentiles), and pin graceful degradation under
deliberate overload.
"""

import json
import os

import pytest

from repro.serve import LoadGenConfig, ServeConfig, run_loadtest, serve_replay
from repro.sim.replay import CacheMode, ReplayConfig, run_replay

TOLERANCE = 1e-9


def _assert_equivalent(offline, served):
    assert len(offline.users) == len(served.users)
    for a, b in zip(offline.users, served.users):
        assert a.user_id == b.user_id
        assert a.user_class == b.user_class
        assert a.metrics.count == b.metrics.count
        assert a.metrics.hits == b.metrics.hits
        assert a.metrics.total_latency_s == pytest.approx(
            b.metrics.total_latency_s, abs=TOLERANCE
        )
        assert a.metrics.total_energy_j == pytest.approx(
            b.metrics.total_energy_j, abs=TOLERANCE
        )
    assert offline.overall_hit_rate() == pytest.approx(
        served.overall_hit_rate(), abs=TOLERANCE
    )


class TestServeReplayEquivalence:
    CONFIG = ReplayConfig(users_per_class=2, seed=97)

    @pytest.mark.parametrize("mode", CacheMode.ALL)
    def test_mode_accounting_matches_offline(self, small_log, mode):
        offline = run_replay(small_log, self.CONFIG, modes=(mode,))[mode]
        results, reports = serve_replay(small_log, self.CONFIG, modes=(mode,))
        assert reports[mode].shed == 0, "equivalence run must not shed"
        _assert_equivalent(offline, results[mode])

    def test_percentiles_match_exactly(self, small_log):
        """Exact collectors hold identical outcome sequences, so even
        order-sensitive statistics agree."""
        mode = CacheMode.FULL
        offline = run_replay(small_log, self.CONFIG, modes=(mode,))[mode]
        served = serve_replay(small_log, self.CONFIG, modes=(mode,))[0][mode]
        for a, b in zip(offline.users, served.users):
            for q in (50, 90, 99):
                pa, pb = (
                    a.metrics.latency_percentile(q),
                    b.metrics.latency_percentile(q),
                )
                assert pa == pb or (pa != pa and pb != pb)  # nan == nan

    def test_daily_updates_equivalence(self, small_log):
        """The event-synced refresh backend reproduces the offline
        nightly-update ordering even with queueing in play."""
        config = ReplayConfig(users_per_class=2, seed=97, daily_updates=True)
        mode = CacheMode.FULL
        offline = run_replay(small_log, config, modes=(mode,))[mode]
        results, reports = serve_replay(small_log, config, modes=(mode,))
        assert reports[mode].shed == 0
        _assert_equivalent(offline, results[mode])

    def test_serve_report_consistency(self, small_log):
        results, reports = serve_replay(
            small_log, self.CONFIG, modes=(CacheMode.FULL,)
        )
        report = reports[CacheMode.FULL]
        total = sum(u.metrics.count for u in results[CacheMode.FULL].users)
        assert report.requests == report.completed == total
        assert report.hits + report.misses == report.completed
        # Every miss goes through the batcher exactly once.
        assert report.fetches + report.piggybacked == report.misses
        assert report.sojourn_p50_s > 0
        assert report.to_metrics()["throughput_rps"] == pytest.approx(
            report.throughput_rps
        )


class TestGoldenServe:
    """The serve path against the checked-in golden replay fixture."""

    FIXTURE = os.path.join(
        os.path.dirname(__file__), "..", "fixtures", "golden_replay.json"
    )

    def test_serve_matches_golden_fixture(self):
        from tests.differential.test_golden_regression import (
            GOLDEN_CONFIG,
            TOLERANCE as GOLDEN_TOLERANCE,
        )
        from repro.logs.generator import GeneratorConfig, generate_logs
        from repro.logs.popularity import CommunityModel
        from repro.logs.users import PopulationConfig, UserPopulation
        from repro.logs.vocabulary import Vocabulary, VocabularyConfig

        log = generate_logs(
            community=CommunityModel(
                Vocabulary.build(VocabularyConfig(**GOLDEN_CONFIG["vocabulary"]))
            ),
            population=UserPopulation.build(
                PopulationConfig(**GOLDEN_CONFIG["population"])
            ),
            config=GeneratorConfig(**GOLDEN_CONFIG["generator"]),
        )
        results, reports = serve_replay(
            log,
            ReplayConfig(
                users_per_class=GOLDEN_CONFIG["users_per_class"],
                seed=GOLDEN_CONFIG["replay_seed"],
            ),
            modes=(CacheMode.FULL,),
        )
        result = results[CacheMode.FULL]
        with open(self.FIXTURE) as fh:
            golden = json.load(fh)
        assert reports[CacheMode.FULL].shed == 0
        assert len(result.users) == golden["n_users"]
        assert (
            sum(u.metrics.count for u in result.users)
            == golden["total_queries"]
        )
        assert sum(u.metrics.hits for u in result.users) == golden["total_hits"]
        assert result.overall_hit_rate() == pytest.approx(
            golden["overall_hit_rate"], abs=GOLDEN_TOLERANCE
        )


class TestOverloadDegradation:
    def test_overload_sheds_typed_and_bounds_latency(self, small_log):
        """Deliberate ~10x per-device overload: the server sheds with
        typed responses, never loses a request, and the sojourn of
        *admitted* requests stays bounded by the queue depth."""
        queue_depth = 4
        report, workload = run_loadtest(
            small_log,
            LoadGenConfig(
                duration_s=600.0,
                rate_multiplier=3000.0,
                seed=7,
                max_devices=2,
            ),
            ServeConfig(queue_depth=queue_depth, max_inflight=64),
        )
        assert workload.n_requests > 100
        # Conservation: every request either completed or was shed, typed.
        assert report.completed + report.shed == report.requests
        assert report.shed > 0
        assert set(report.shed_reasons) <= {"device-queue-full", "server-busy"}
        assert sum(report.shed_reasons.values()) == report.shed
        # Graceful degradation: admitted requests never wait behind more
        # than queue_depth predecessors, so worst-case sojourn is bounded
        # by (queue_depth + 1) * worst single-request service time.
        worst_service_s = 10.0  # miss: radio + render, generously rounded
        assert report.sojourn_max_s <= (queue_depth + 1) * worst_service_s
        assert report.sojourn_p99_s <= report.sojourn_max_s
        assert 0.0 < report.shed_rate < 1.0

    def test_light_load_sheds_nothing(self, small_log):
        report, workload = run_loadtest(
            small_log,
            LoadGenConfig(duration_s=3600.0, rate_multiplier=2.0, seed=7),
            ServeConfig(queue_depth=32, max_inflight=4096),
        )
        assert report.shed == 0
        assert report.completed == workload.n_requests

    def test_loadtest_deterministic(self, small_log):
        kwargs = dict(
            loadgen=LoadGenConfig(
                duration_s=600.0, rate_multiplier=1000.0, seed=7, max_devices=3
            ),
            serve_config=ServeConfig(queue_depth=4, max_inflight=32),
        )
        a, _ = run_loadtest(small_log, **kwargs)
        b, _ = run_loadtest(small_log, **kwargs)
        assert a.to_metrics() == b.to_metrics()
