"""NAND flash device model.

Flash is the bulk store of every pocket cloudlet.  The properties the
paper's experiments depend on:

* **Block-granular allocation** (Section 5.2.2): flash is organized in
  fixed-size units (2/4/8 KB depending on chip); a 500-byte file still
  occupies a whole unit, so storing one search result per file wastes
  4-16x its size.  This drives the 32-file database design (Figure 12).
* **Asymmetric latencies**: page reads are tens of microseconds, programs
  hundreds, block erases milliseconds.
* **Energy**: far below the radio's, which is why serving from flash wins.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

from repro.obs.trace import get_tracer
from repro.storage.device import AccessResult, MemoryDevice, shallow_copy

KB = 1024
MB = 1024**2
GB = 1024**3


@dataclass(frozen=True)
class FlashGeometry:
    """Physical organization of a NAND flash part.

    Attributes:
        page_bytes: program/read granularity and the filesystem allocation
            unit (the paper's 2-8 KB "block" in Section 5.2.2).
        pages_per_block: pages per erase block.
        total_blocks: number of erase blocks on the device.
    """

    page_bytes: int = 4 * KB
    pages_per_block: int = 64
    total_blocks: int = 4096

    def __post_init__(self) -> None:
        for attr in ("page_bytes", "pages_per_block", "total_blocks"):
            if getattr(self, attr) <= 0:
                raise ValueError(f"{attr} must be positive")

    @property
    def block_bytes(self) -> int:
        return self.page_bytes * self.pages_per_block

    @property
    def total_pages(self) -> int:
        return self.pages_per_block * self.total_blocks

    @property
    def capacity_bytes(self) -> int:
        return self.block_bytes * self.total_blocks

    def pages_for(self, nbytes: int) -> int:
        """Pages needed to hold ``nbytes`` (ceiling division)."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        if nbytes == 0:
            return 0
        return -(-nbytes // self.page_bytes)


@dataclass
class FlashStats:
    """Cumulative flash operation counters."""

    page_reads: int = 0
    page_programs: int = 0
    block_erases: int = 0


class NandFlash(MemoryDevice):
    """NAND flash with page-granular reads/programs and block erases.

    The :class:`MemoryDevice` byte-level interface is kept (it models the
    bus transfer), while :meth:`read_pages` / :meth:`program_pages` /
    :meth:`erase_blocks` add the page/block command costs a real part
    incurs.
    """

    def __init__(
        self,
        geometry: FlashGeometry = FlashGeometry(),
        read_page_s: float = 25e-6,
        program_page_s: float = 200e-6,
        erase_block_s: float = 1.5e-3,
        read_page_energy_j: float = 2e-6,
        program_page_energy_j: float = 15e-6,
        erase_block_energy_j: float = 50e-6,
    ) -> None:
        super().__init__(
            name="nand-flash",
            capacity_bytes=geometry.capacity_bytes,
            read_latency_s=read_page_s,
            write_latency_s=program_page_s,
            read_bandwidth_bps=40e6,
            write_bandwidth_bps=10e6,
            access_energy_j=read_page_energy_j,
            energy_per_byte_j=5e-12,
            volatile=False,
        )
        self.geometry = geometry
        self.read_page_s = read_page_s
        self.program_page_s = program_page_s
        self.erase_block_s = erase_block_s
        self.read_page_energy_j = read_page_energy_j
        self.program_page_energy_j = program_page_energy_j
        self.erase_block_energy_j = erase_block_energy_j
        self.stats = FlashStats()

    def copy(self) -> "NandFlash":
        """An independent device with the same cumulative counters."""
        clone = shallow_copy(self)
        clone.stats = replace(self.stats)
        return clone

    def read_pages(self, npages: int) -> AccessResult:
        """Read ``npages`` whole pages (command + transfer cost)."""
        return AccessResult(*self.read_cost(npages))

    def program_pages(self, npages: int) -> AccessResult:
        """Program ``npages`` whole pages (command + transfer cost)."""
        return AccessResult(*self.program_cost(npages))

    def read_cost(self, npages: int) -> Tuple[float, float, int]:
        """:meth:`read_pages` as ``(latency_s, energy_j, bytes_moved)``,
        for a caller that folds the cost into a result of its own."""
        self._check_pages(npages)
        nbytes = npages * self.geometry.page_bytes
        latency = npages * self.read_page_s + nbytes / self.read_bandwidth_bps
        energy = npages * self.read_page_energy_j + nbytes * self.energy_per_byte_j
        self.stats.page_reads += npages
        self._log(latency, energy, nbytes, reads=1, bytes_read=nbytes)
        return latency, energy, nbytes

    def program_cost(self, npages: int) -> Tuple[float, float, int]:
        """:meth:`program_pages` as ``(latency_s, energy_j, bytes_moved)``."""
        self._check_pages(npages)
        nbytes = npages * self.geometry.page_bytes
        latency = npages * self.program_page_s + nbytes / self.write_bandwidth_bps
        energy = npages * self.program_page_energy_j + nbytes * self.energy_per_byte_j
        self.stats.page_programs += npages
        self._log(latency, energy, nbytes, writes=1, bytes_written=nbytes)
        return latency, energy, nbytes

    def erase_blocks(self, nblocks: int) -> AccessResult:
        """Erase ``nblocks`` erase blocks."""
        self._check_pages(nblocks)
        latency = nblocks * self.erase_block_s
        energy = nblocks * self.erase_block_energy_j
        self.stats.block_erases += nblocks
        self._log(latency, energy, 0)
        return AccessResult(latency_s=latency, energy_j=energy, bytes_moved=0)

    def _check_pages(self, n: int) -> None:
        if n < 0:
            raise ValueError(f"count must be non-negative, got {n}")

    def _log(
        self,
        latency: float,
        energy: float,
        nbytes: int,
        reads: int = 0,
        writes: int = 0,
        bytes_read: int = 0,
        bytes_written: int = 0,
    ) -> None:
        self.total_time_s += latency
        self.total_energy_j += energy
        self.total_reads += reads
        self.total_writes += writes
        self.total_bytes_read += bytes_read
        self.total_bytes_written += bytes_written
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "device_access",
                device=self.name,
                op="read" if reads else ("write" if writes else "erase"),
                nbytes=nbytes,
                model_latency_s=latency,
                model_energy_j=energy,
            )
