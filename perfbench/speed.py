"""Host speed probe, sampled while a timed phase runs.

On a shared 2-vCPU VM the same run takes up to ±25% more or less time
from one minute to the next, because the host's other tenants slow the
cores down, so two sets of runs made some minutes apart can differ by
30% in their medians.  The probe measures that slowdown while the phase
runs: every ``INTERVAL_S`` of wall time a ``SIGALRM`` handler times a
fixed interpreter-bound kernel (``_kernel``).  A phase's wall time,
less the probe's own time, scaled by ``NOMINAL_S`` over the mean sample,
is the time the phase would take on a host where the kernel takes
``NOMINAL_S``; that scaled time is what the benchmark reports.

The handler runs between bytecodes of the main thread, so a phase that
spends a long stretch inside one C call (a numpy operation) is sampled
when it returns; the samples follow the phase's interpreter time, which
is where the workloads spend it.
"""

from __future__ import annotations

import math
import signal
import time
from typing import Dict, List

#: Wall time between two samples.
INTERVAL_S = 0.01
#: Kernel time at the nominal host speed (a typical sample, taken in the
#: signal handler, on the 2-vCPU VM the bounds were set on); scaled
#: times are at this speed.
NOMINAL_S = 150e-6


def _kernel(table: Dict[int, float]) -> float:
    """Fixed work in the workloads' mix: dict traffic, calls, integer and
    float arithmetic.  It allocates no container, so it can never start a
    garbage collection of the workload's heap."""
    acc = 0
    for i in range(600):
        key = i & 127
        table[key] = table.get(key, 0.0) * 0.5 + i
        acc += (i * i) % 7
    return acc + table[0]


class SpeedProbe:
    """Context manager that samples the kernel while its block runs."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._table: Dict[int, float] = dict.fromkeys(range(128), 0.0)
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _kernel(self._table)
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, wall_s: float) -> float:
        """``wall_s`` of the probed block, less the probe's own time, at
        the nominal host speed."""
        if not self.samples:
            raise RuntimeError("the speed probe took no sample")
        mean = math.fsum(self.samples) / len(self.samples)
        return (wall_s - math.fsum(self.samples)) * NOMINAL_S / mean

    def summary(self) -> Dict[str, float]:
        """Sample count, mean and total probe time, for the report."""
        total = math.fsum(self.samples)
        return {
            "n": len(self.samples),
            "mean_s": total / len(self.samples) if self.samples else 0.0,
            "total_s": total,
        }
