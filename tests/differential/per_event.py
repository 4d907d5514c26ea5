"""Reach the per-event replay path the way production reaches it.

``repro.sim.replay.replay_one_user`` serves users with the batch engine
unless the tracer is recording; then it serves them event by event
through a ``PocketSearchEngine`` (``repro.sim.replay.replay_user``), as
``repro trace`` and ``repro profile`` do.  The differential suites use
that path as the reference the batch engine must equal.
"""

from contextlib import contextmanager

from repro.obs import trace


@contextmanager
def per_event_replay():
    """Serve the serial replays run in this block event by event.

    Pool workers install the no-op tracer, so a sharded replay still
    takes the batch engine in its workers.
    """
    trace.enable()
    try:
        yield
    finally:
        trace.disable()
