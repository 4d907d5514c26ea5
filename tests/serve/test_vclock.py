"""Tests for the deterministic simulated-time event loop."""

import asyncio
import select
import threading
import time

import pytest

from repro.serve.vclock import VirtualTimeLoop, run_simulated


class TestVirtualTime:
    def test_sleep_advances_clock_not_wall(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            t0 = loop.time()
            await asyncio.sleep(1_000_000.0)
            return loop.time() - t0

        wall0 = time.monotonic()
        elapsed = run_simulated(scenario())
        assert elapsed == pytest.approx(1_000_000.0)
        assert time.monotonic() - wall0 < 5.0

    def test_clock_starts_at_zero(self):
        async def scenario():
            return asyncio.get_running_loop().time()

        assert run_simulated(scenario()) == 0.0

    def test_concurrent_sleeps_complete_in_deadline_order(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            events = []

            async def sleeper(name, dt):
                await asyncio.sleep(dt)
                events.append((name, loop.time()))

            await asyncio.gather(
                sleeper("c", 3.0), sleeper("a", 1.0), sleeper("b", 2.0)
            )
            return events

        events = run_simulated(scenario())
        assert [name for name, _ in events] == ["a", "b", "c"]
        assert [t for _, t in events] == pytest.approx([1.0, 2.0, 3.0])

    def test_interleaving_is_deterministic(self):
        async def scenario():
            trace = []

            async def worker(name, period, n):
                for i in range(n):
                    await asyncio.sleep(period)
                    trace.append((name, i))

            await asyncio.gather(
                worker("x", 0.7, 10), worker("y", 1.1, 10), worker("z", 0.3, 10)
            )
            return trace

        assert run_simulated(scenario()) == run_simulated(scenario())

    def test_result_and_exception_propagate(self):
        async def ok():
            await asyncio.sleep(1)
            return 42

        async def boom():
            await asyncio.sleep(1)
            raise ValueError("boom")

        assert run_simulated(ok()) == 42
        with pytest.raises(ValueError, match="boom"):
            run_simulated(boom())

    def test_deadlocked_await_raises_instead_of_spinning(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            await loop.create_future()  # nobody will ever resolve this

        with pytest.raises(RuntimeError, match="stalled"):
            run_simulated(scenario())

    def test_loop_closed_after_run(self):
        loop_holder = {}

        async def scenario():
            loop_holder["loop"] = asyncio.get_running_loop()

        run_simulated(scenario())
        assert isinstance(loop_holder["loop"], VirtualTimeLoop)
        assert loop_holder["loop"].is_closed()


class TestSelectorPolling:
    def test_threadsafe_callback_runs_and_self_pipe_drains(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            ran = []
            thread = threading.Thread(
                target=loop.call_soon_threadsafe, args=(ran.append, "x")
            )
            thread.start()
            thread.join()
            # The callback is already queued: the next turn runs it.
            await asyncio.sleep(0)
            ran_before_advance = list(ran)
            # A turn that advances the clock polls the real selector,
            # which reads the wake-up byte out of the self-pipe.
            await asyncio.sleep(1.0)
            readable, _, _ = select.select([loop._ssock], [], [], 0)
            return ran_before_advance, readable, loop.time()

        ran, readable, now = run_simulated(scenario())
        assert ran == ["x"]
        assert readable == []
        assert now == 1.0

    def test_only_clock_advancing_turns_poll_the_selector(self):
        loop = VirtualTimeLoop()
        polls = []
        wall_select = loop._wall_select

        def counting(timeout):
            polls.append(timeout)
            return wall_select(timeout)

        loop._wall_select = counting

        async def scenario():
            for _ in range(5):
                await asyncio.sleep(0)  # turns that only run callbacks
            await asyncio.sleep(2.0)  # the one turn that advances time

        try:
            loop.run_until_complete(scenario())
        finally:
            loop.close()
        assert polls == [0]
