"""Radio condition variability.

The paper's motivation stresses that cellular latency is not just high
but *unpredictable*: "3 to 10 seconds depending on location, device and
operator", doubling or tripling on a weak or EDGE-only connection.  A
:class:`LinkConditions` value scales a profile's round-trip time and
goodput; :class:`ConditionSampler` draws per-request conditions so
experiments can report full latency distributions rather than means.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import numpy as np

from repro.radio.models import RadioProfile


@dataclass(frozen=True)
class LinkConditions:
    """One request's link quality in (0, 1]; 1.0 is the nominal profile.

    RTT scales as ``1/quality`` and goodput as ``quality`` — a 0.5
    quality roughly doubles a transfer-bound request, matching the
    paper's "doubled or even tripled" weak-signal observation.
    """

    quality: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.quality <= 1:
            raise ValueError(f"quality must be in (0, 1], got {self.quality}")

    def apply(self, profile: RadioProfile) -> RadioProfile:
        """A degraded copy of ``profile`` under these conditions."""
        return replace(
            profile,
            rtt_s=profile.rtt_s / self.quality,
            downlink_bps=profile.downlink_bps * self.quality,
            uplink_bps=profile.uplink_bps * self.quality,
        )


class ConditionSampler:
    """Draws per-request link conditions.

    Quality follows a Beta distribution skewed toward good signal (most
    requests happen where coverage is fine) with a weak-signal tail.

    Args:
        mean_quality: average link quality.
        concentration: Beta concentration (higher = tighter around mean).
        floor: minimum quality (total dead zones are out of scope —
            the request eventually completes).
        seed: RNG seed.
    """

    def __init__(
        self,
        mean_quality: float = 0.75,
        concentration: float = 6.0,
        floor: float = 0.2,
        seed: int = 7,
    ) -> None:
        if not 0 < mean_quality < 1:
            raise ValueError("mean_quality must be in (0, 1)")
        if concentration <= 0:
            raise ValueError("concentration must be positive")
        if not 0 < floor <= 1:
            raise ValueError("floor must be in (0, 1]")
        self.mean_quality = mean_quality
        self.concentration = concentration
        self.floor = floor
        self._rng = np.random.default_rng(seed)

    def sample(self) -> LinkConditions:
        a = self.mean_quality * self.concentration
        b = (1 - self.mean_quality) * self.concentration
        quality = float(np.clip(self._rng.beta(a, b), self.floor, 1.0))
        return LinkConditions(quality=quality)

    def sample_many(self, n: int):
        if n < 0:
            raise ValueError("n must be non-negative")
        return [self.sample() for _ in range(n)]
