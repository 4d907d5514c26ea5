"""Tests for the asyncio cloudlet server: admission, ordering, close."""

import asyncio

import pytest

from repro.edge.tier import EdgeTier, EdgeTopology
from repro.obs.registry import MetricsRegistry
from repro.serve.backends import BackendError, BackendResult, SearchBackend
from repro.serve.harness import run_loadtest, run_workload
from repro.serve.loadgen import LoadGenConfig, Workload
from repro.serve.requests import Overloaded, ServeRequest, ServeResponse
from repro.serve.server import CloudletServer, ServeConfig
from repro.serve.vclock import run_simulated
from repro.sim.metrics import QueryOutcome, ServiceSource


class StubBackend:
    """Scripted backend: hits on keys in ``cached``, records call order."""

    def __init__(
        self,
        cached=frozenset(),
        hit_latency_s=0.1,
        miss_latency_s=2.0,
        radio_s=1.5,
    ):
        self.cached = set(cached)
        self.hit_latency_s = hit_latency_s
        self.miss_latency_s = miss_latency_s
        self.radio_s = radio_s
        self.served = []

    def serve(self, request: ServeRequest) -> BackendResult:
        self.served.append(request.key)
        hit = request.key in self.cached
        outcome = QueryOutcome(
            query=request.key,
            hit=hit,
            source=ServiceSource.CACHE if hit else ServiceSource.RADIO_3G,
            latency_s=self.hit_latency_s if hit else self.miss_latency_s,
            energy_j=0.0,
            timestamp=request.timestamp,
        )
        return BackendResult(
            outcome=outcome, radio_s=0.0 if hit else self.radio_s
        )


def _request(device_id=1, key="q", timestamp=0.0):
    return ServeRequest(device_id=device_id, key=key, timestamp=timestamp)


class TestAdmissionControl:
    def test_device_queue_full_sheds_typed_response(self):
        async def scenario():
            server = CloudletServer(
                lambda uid: StubBackend(cached={"q"}),
                ServeConfig(queue_depth=1),
                registry=MetricsRegistry(),
            )
            futures = [
                server.submit(_request(key=f"q{i}")) for i in range(5)
            ]
            await server.drain()
            replies = [f.result() for f in futures]
            await server.close()
            return server, replies

        server, replies = run_simulated(scenario())
        sheds = [r for r in replies if isinstance(r, Overloaded)]
        completed = [r for r in replies if isinstance(r, ServeResponse)]
        # Burst of 5 into a depth-1 queue before the worker runs: one
        # queued, four shed -- and the sheds resolve instantly, typed.
        assert len(completed) == 1
        assert len(sheds) == 4
        assert all(s.reason == "device-queue-full" for s in sheds)
        assert all(not s.ok for s in sheds)
        assert server.registry.counter("serve.shed").value == 4
        assert (
            server.registry.counter("serve.shed.device_queue_full").value == 4
        )

    def test_global_inflight_cap_sheds_server_busy(self):
        async def scenario():
            server = CloudletServer(
                lambda uid: StubBackend(cached={"q"}),
                ServeConfig(queue_depth=10, max_inflight=2),
                registry=MetricsRegistry(),
            )
            futures = [
                server.submit(_request(device_id=uid)) for uid in range(4)
            ]
            await server.drain()
            replies = [f.result() for f in futures]
            await server.close()
            return replies

        replies = run_simulated(scenario())
        sheds = [r for r in replies if isinstance(r, Overloaded)]
        assert len(sheds) == 2
        assert all(s.reason == "server-busy" for s in sheds)

    def test_sheds_resolve_immediately(self):
        async def scenario():
            server = CloudletServer(
                lambda uid: StubBackend(),
                ServeConfig(queue_depth=1),
                registry=MetricsRegistry(),
            )
            server.submit(_request(key="a"))
            shed = server.submit(_request(key="b"))
            done_now = shed.done()
            await server.drain()
            await server.close()
            return done_now

        assert run_simulated(scenario()) is True


class TestServing:
    def test_per_device_fifo_order(self):
        async def scenario():
            backends = {}

            def factory(uid):
                backends[uid] = StubBackend(cached={f"k{i}" for i in range(20)})
                return backends[uid]

            server = CloudletServer(
                factory, ServeConfig(queue_depth=64), registry=MetricsRegistry()
            )
            for i in range(20):
                server.submit(_request(device_id=7, key=f"k{i}"))
            await server.drain()
            await server.close()
            return backends[7].served

        assert run_simulated(scenario()) == [f"k{i}" for i in range(20)]

    def test_response_times_and_metrics(self):
        async def scenario():
            server = CloudletServer(
                lambda uid: StubBackend(cached={"hit"}, hit_latency_s=0.5),
                ServeConfig(queue_depth=8),
                registry=MetricsRegistry(),
            )
            hit_f = server.submit(_request(key="hit"))
            miss_f = server.submit(_request(key="miss"))
            await server.drain()
            await server.close()
            return server, hit_f.result(), miss_f.result()

        server, hit, miss = run_simulated(scenario())
        assert hit.ok and hit.outcome.hit
        assert hit.sojourn_s == pytest.approx(0.5)
        # Miss: radio fetch (1.5s shared window) + local remainder (0.5s),
        # queued behind the hit.
        assert not miss.outcome.hit
        assert miss.completed_at == pytest.approx(0.5 + 2.0)
        assert miss.sojourn_s == pytest.approx(2.5)
        assert miss.queue_wait_s == pytest.approx(0.5)
        reg = server.registry
        assert reg.counter("serve.completed").value == 2
        assert reg.counter("serve.hits").value == 1
        assert reg.counter("serve.misses").value == 1
        assert reg.histogram("serve.sojourn_s").count == 2
        assert reg.gauge("serve.inflight_peak").value == 2

    def test_cross_device_miss_batching(self):
        async def scenario():
            server = CloudletServer(
                lambda uid: StubBackend(),  # everything misses
                ServeConfig(queue_depth=8),
                registry=MetricsRegistry(),
            )
            futures = [
                server.submit(_request(device_id=uid, key="same-query"))
                for uid in range(3)
            ]
            await server.drain()
            replies = [f.result() for f in futures]
            await server.close()
            return server, replies

        server, replies = run_simulated(scenario())
        assert server.batcher.fetches == 1
        assert server.batcher.piggybacked == 2
        shared = [r.shared_fetch for r in replies]
        assert shared.count(True) == 2
        # Sharing never changes the *model* accounting.
        assert all(r.outcome.latency_s == 2.0 for r in replies)

    def test_time_scale_zero_serves_instantly(self):
        async def scenario():
            server = CloudletServer(
                lambda uid: StubBackend(),
                ServeConfig(queue_depth=8, time_scale=0.0),
                registry=MetricsRegistry(),
            )
            futures = [server.submit(_request(key=f"q{i}")) for i in range(5)]
            await server.drain()
            await server.close()
            loop = asyncio.get_running_loop()
            return loop.time(), [f.result() for f in futures]

        t, replies = run_simulated(scenario())
        assert t == 0.0
        assert all(isinstance(r, ServeResponse) for r in replies)

    def test_submit_after_close_raises(self):
        async def scenario():
            server = CloudletServer(
                lambda uid: StubBackend(), registry=MetricsRegistry()
            )
            await server.close()
            with pytest.raises(RuntimeError, match="closed"):
                server.submit(_request())

        run_simulated(scenario())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServeConfig(queue_depth=0)
        with pytest.raises(ValueError):
            ServeConfig(max_inflight=-1)
        with pytest.raises(ValueError):
            ServeConfig(time_scale=-0.1)


class TestDrain:
    def test_returns_when_nothing_was_admitted(self):
        async def scenario():
            server = CloudletServer(
                lambda uid: StubBackend(), registry=MetricsRegistry()
            )
            await asyncio.wait_for(server.drain(), timeout=1.0)
            loop = asyncio.get_running_loop()
            await server.close()
            return loop.time(), server.inflight

        assert run_simulated(scenario()) == (0.0, 0)

    def test_returns_after_an_edge_queue_full_shed(self):
        async def scenario():
            server = CloudletServer(
                lambda uid: StubBackend(),
                registry=MetricsRegistry(),
                edge=EdgeTier(EdgeTopology(n_nodes=1, node_max_inflight=1)),
            )
            # Two devices miss on one key at once: the second finds the
            # node's one fetch slot taken and is shed after admission.
            futures = [
                server.submit(_request(device_id=uid, key="k"))
                for uid in (1, 2)
            ]
            await asyncio.wait_for(server.drain(), timeout=60.0)
            inflight = server.inflight
            await server.close()
            return [f.result() for f in futures], inflight

        replies, inflight = run_simulated(scenario())
        assert isinstance(replies[0], ServeResponse)
        assert isinstance(replies[1], Overloaded)
        assert replies[1].reason == "edge-queue-full"
        assert inflight == 0


class TestClose:
    """Closing the server resolves every admitted request still queued or
    in service with a typed ``server-closed`` shed; none is abandoned."""

    @staticmethod
    async def _close_with_pending(server, keys, timeout=3600.0):
        futures = [server.submit(_request(key=k)) for k in keys]
        await asyncio.sleep(0)  # the worker takes the first request
        drain = asyncio.ensure_future(server.drain())
        await server.close()
        replies = [await asyncio.wait_for(f, timeout) for f in futures]
        await asyncio.wait_for(drain, timeout)
        registry = server.registry
        counts = {
            name: registry.counter("serve." + name).value
            for name in ("requests", "completed", "shed", "shed.server_closed")
        }
        return replies, server.inflight, counts

    def _check(self, result, n):
        replies, inflight, counts = result
        assert all(isinstance(r, Overloaded) for r in replies)
        assert [r.reason for r in replies] == ["server-closed"] * n
        assert inflight == 0
        assert counts["requests"] == n
        assert counts["shed"] == counts["shed.server_closed"] == n
        assert counts["completed"] + counts["shed"] == counts["requests"]

    def test_queued_and_in_service_requests_resolve(self):
        server = CloudletServer(
            lambda uid: StubBackend(cached={"a", "b", "c"}),
            registry=MetricsRegistry(),
        )
        result = run_simulated(
            asyncio.wait_for(
                self._close_with_pending(server, ["a", "b", "c"]), 7200
            )
        )
        self._check(result, 3)
        # The telemetry windows count each request once, as shed.
        rolling = server.telemetry.rolling(0.0)
        assert (rolling["requests"], rolling["shed"]) == (3, 3)

    def test_wall_clock(self):
        server = CloudletServer(
            lambda uid: StubBackend(cached={"a", "b", "c"}),
            registry=MetricsRegistry(),
        )
        result = asyncio.run(
            self._close_with_pending(server, ["a", "b", "c"], timeout=10.0)
        )
        self._check(result, 3)

    def test_request_in_the_miss_batcher_resolves(self):
        server = CloudletServer(
            lambda uid: StubBackend(), registry=MetricsRegistry()
        )
        result = run_simulated(
            asyncio.wait_for(
                self._close_with_pending(server, ["miss", "next"]), 7200
            )
        )
        self._check(result, 2)
        assert server.batcher.inflight == 0

    def test_request_in_the_edge_hop_resolves(self):
        server = CloudletServer(
            lambda uid: StubBackend(),
            registry=MetricsRegistry(),
            edge=EdgeTier(EdgeTopology(n_nodes=1)),
        )
        result = run_simulated(
            asyncio.wait_for(
                self._close_with_pending(server, ["miss", "next"]), 7200
            )
        )
        self._check(result, 2)


class FailingBackend(StubBackend):
    """A stub that raises on its ``fail_at``-th request (1-based)."""

    def __init__(self, fail_at=2, **kwargs):
        super().__init__(**kwargs)
        self.fail_at = fail_at
        self.calls = 0

    def serve(self, request: ServeRequest) -> BackendResult:
        self.calls += 1
        if self.calls == self.fail_at:
            raise ValueError(f"backend failed on {request.key!r}")
        return super().serve(request)


class TestBackendErrors:
    """A backend exception fails its own request, and only that one: the
    request raises a :class:`BackendError` chained to it."""

    KEYS = ("a", "b", "c")

    @staticmethod
    def _server(time_scale):
        return CloudletServer(
            lambda uid: FailingBackend(cached={"a", "b", "c"}),
            ServeConfig(time_scale=time_scale),
            registry=MetricsRegistry(),
        )

    async def _serve_three(self, time_scale):
        server = self._server(time_scale)
        futures = [server.submit(_request(key=k)) for k in self.KEYS]
        await asyncio.wait_for(server.drain(), timeout=10.0)
        inflight = server.inflight
        outcomes = [
            "{}({})".format(
                type(f.exception()).__name__,
                type(f.exception().__cause__).__name__,
            )
            if f.exception() is not None
            else f.result().request.key
            for f in futures
        ]
        completed = server.registry.counter("serve.completed").value
        await server.close()
        return outcomes, inflight, completed

    def _check(self, result):
        outcomes, inflight, completed = result
        # The failed request raises; the device's later request is still
        # served, and nothing stays in flight.
        assert outcomes == ["a", "BackendError(ValueError)", "c"]
        assert inflight == 0
        assert completed == 2

    def test_virtual_clock(self):
        self._check(run_simulated(self._serve_three(1.0)))

    def test_wall_clock(self):
        self._check(asyncio.run(self._serve_three(0.001)))

    def _workload(self):
        return Workload(
            arrivals=[
                (0.01 * i, _request(key=k)) for i, k in enumerate(self.KEYS)
            ],
            duration_s=1.0,
        )

    def test_run_workload_raises_it_on_the_virtual_clock(self):
        server = self._server(1.0)
        with pytest.raises(BackendError, match="'b'") as raised:
            run_simulated(
                asyncio.wait_for(
                    run_workload(server, self._workload()), timeout=60.0
                )
            )
        assert isinstance(raised.value.__cause__, ValueError)
        assert server.inflight == 0

    def test_run_workload_raises_it_on_the_wall_clock(self):
        server = self._server(0.001)
        with pytest.raises(BackendError, match="'b'") as raised:
            asyncio.run(
                asyncio.wait_for(
                    run_workload(server, self._workload()), timeout=10.0
                )
            )
        assert isinstance(raised.value.__cause__, ValueError)
        assert server.inflight == 0

    def test_run_loadtest_raises_it(self, small_log, monkeypatch):
        serve = SearchBackend.serve
        calls = []

        def failing_serve(self, request):
            calls.append(request.key)
            if len(calls) == 3:
                raise ValueError(f"backend failed on {request.key!r}")
            return serve(self, request)

        monkeypatch.setattr(SearchBackend, "serve", failing_serve)
        with pytest.raises(BackendError) as raised:
            run_loadtest(
                small_log,
                LoadGenConfig(duration_s=60.0, rate_multiplier=200.0, seed=3),
            )
        assert isinstance(raised.value.__cause__, ValueError)
        assert raised.value.request.key == calls[2]
        # The run went on serving after the failure.
        assert len(calls) > 3


class TestCancellation:
    def test_cancelling_run_workload_cancels_the_next_arrival(self):
        async def scenario():
            backends = []

            def factory(uid):
                backends.append(StubBackend(cached={"a", "b"}))
                return backends[-1]

            server = CloudletServer(factory, registry=MetricsRegistry())
            workload = Workload(
                arrivals=[(0.0, _request(key="a")), (100.0, _request(key="b"))],
                duration_s=200.0,
            )
            task = asyncio.ensure_future(run_workload(server, workload))
            await asyncio.sleep(10.0)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            # Well past the second arrival: it was never submitted.
            await asyncio.sleep(500.0)
            return [key for b in backends for key in b.served]

        assert run_simulated(scenario()) == ["a"]


class TestArrivals:
    def test_a_submit_exception_propagates_out_of_run_workload(self):
        def factory(uid):
            if uid == 2:
                raise LookupError("no backend for device 2")
            return StubBackend(cached={"a"})

        server = CloudletServer(factory, registry=MetricsRegistry())
        workload = Workload(
            arrivals=[
                (0.0, _request(device_id=1, key="a")),
                (5.0, _request(device_id=2, key="a")),
            ],
            duration_s=10.0,
        )
        with pytest.raises(LookupError, match="device 2"):
            run_simulated(
                asyncio.wait_for(run_workload(server, workload), timeout=60.0)
            )
