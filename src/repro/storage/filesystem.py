"""A flat file layer over the NAND flash model.

PocketSearch stores its search-result database as plain files on flash
(Section 5.2.2).  This filesystem models what matters there:

* **page-rounded allocation** — a file's flash footprint is its size
  rounded up to whole pages, so many tiny files fragment the device;
* **open overhead** — locating a file's metadata costs a fixed latency;
* **positioned reads** — reading a byte range touches only the pages that
  cover it;
* **appends** — adding a search result to a database file programs the
  tail page(s).

Contents are modelled as byte *sizes*, not actual bytes: the experiments
care about time, energy and space, and the PocketSearch database keeps its
own logical content in memory structures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.storage.device import AccessResult, shallow_copy
from repro.storage.flash import NandFlash


class FilesystemError(Exception):
    """Raised on invalid filesystem operations (missing file, full device)."""


@dataclass(frozen=True)
class FlashFile:
    """Read-only snapshot of one file's metadata."""

    name: str
    size_bytes: int
    pages_allocated: int
    allocated_bytes: int


@dataclass
class _FileEntry:
    name: str
    size_bytes: int
    pages_allocated: int


class FlashFilesystem:
    """Flat namespace of files with page-granular allocation on flash.

    Args:
        flash: the underlying :class:`NandFlash` device.
        open_overhead_s: fixed latency to locate a file (directory lookup).
        open_energy_j: energy for the lookup.
    """

    def __init__(
        self,
        flash: NandFlash,
        open_overhead_s: float = 2.5e-3,
        open_energy_j: float = 0.5e-3,
    ) -> None:
        self.flash = flash
        self.open_overhead_s = open_overhead_s
        self.open_energy_j = open_energy_j
        self._files: Dict[str, _FileEntry] = {}
        self._pages_used = 0

    def copy(self) -> "FlashFilesystem":
        """An independent filesystem on a copy of its flash device."""
        clone = shallow_copy(self)
        clone.flash = self.flash.copy()
        clone._files = {
            name: _FileEntry(e.name, e.size_bytes, e.pages_allocated)
            for name, e in self._files.items()
        }
        return clone

    # -- namespace ---------------------------------------------------------

    def exists(self, name: str) -> bool:
        return name in self._files

    def list_files(self) -> List[str]:
        return sorted(self._files)

    def file_size(self, name: str) -> int:
        return self._entry(name).size_bytes

    def file_allocated_bytes(self, name: str) -> int:
        """Physical footprint: pages allocated x page size."""
        return self._entry(name).pages_allocated * self.flash.geometry.page_bytes

    def stat(self, name: str) -> FlashFile:
        """Return a read-only snapshot of a file's metadata."""
        entry = self._entry(name)
        return FlashFile(
            name=entry.name,
            size_bytes=entry.size_bytes,
            pages_allocated=entry.pages_allocated,
            allocated_bytes=entry.pages_allocated * self.flash.geometry.page_bytes,
        )

    # -- capacity accounting ------------------------------------------------

    @property
    def pages_used(self) -> int:
        return self._pages_used

    @property
    def bytes_used(self) -> int:
        """Physical bytes consumed (page-rounded)."""
        return self._pages_used * self.flash.geometry.page_bytes

    @property
    def logical_bytes(self) -> int:
        """Sum of file sizes (what the data actually needs)."""
        return sum(f.size_bytes for f in self._files.values())

    @property
    def fragmentation_bytes(self) -> int:
        """Wasted space: physical footprint minus logical content."""
        return self.bytes_used - self.logical_bytes

    @property
    def free_bytes(self) -> int:
        return self.flash.capacity_bytes - self.bytes_used

    # -- operations ----------------------------------------------------------

    def create(self, name: str, size_bytes: int = 0) -> AccessResult:
        """Create a file, optionally with initial content of ``size_bytes``.

        Returns the modelled cost of programming the initial pages.

        Raises:
            FilesystemError: if the file exists or the device is full.
        """
        if name in self._files:
            raise FilesystemError(f"file exists: {name!r}")
        if size_bytes < 0:
            raise ValueError(f"size_bytes must be non-negative, got {size_bytes}")
        pages = self.flash.geometry.pages_for(size_bytes)
        self._reserve(pages)
        self._files[name] = _FileEntry(name, size_bytes, pages)
        return self._with_open_cost(self.flash.program_cost(pages))

    def append(self, name: str, nbytes: int) -> AccessResult:
        """Append ``nbytes`` to a file, programming tail pages as needed.

        The partially filled tail page must be re-programmed (modelled as
        programming it again), plus any new pages the growth requires.
        """
        entry = self._entry(name)
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        geometry = self.flash.geometry
        new_size = entry.size_bytes + nbytes
        new_pages = geometry.pages_for(new_size)
        extra_pages = new_pages - entry.pages_allocated
        if extra_pages > 0:
            self._reserve(extra_pages)
        tail_partial = 1 if entry.size_bytes % geometry.page_bytes else 0
        pages_to_program = max(extra_pages, 0) + tail_partial
        entry.size_bytes = new_size
        entry.pages_allocated = new_pages
        return self._with_open_cost(self.flash.program_cost(pages_to_program))

    def read(
        self, name: str, offset: int = 0, length: Optional[int] = None
    ) -> AccessResult:
        """Read ``length`` bytes at ``offset``; costs open + covering pages.

        ``length=None`` reads to end of file.

        Raises:
            FilesystemError: if the file is missing or range out of bounds.
        """
        entry = self._entry(name)
        if offset < 0:
            raise ValueError(f"offset must be non-negative, got {offset}")
        if length is None:
            length = entry.size_bytes - offset
        if length < 0 or offset + length > entry.size_bytes:
            raise FilesystemError(
                f"read [{offset}, {offset + length}) out of bounds for "
                f"{name!r} of size {entry.size_bytes}"
            )
        geometry = self.flash.geometry
        if length == 0:
            pages = 0
        else:
            first_page = offset // geometry.page_bytes
            last_page = (offset + length - 1) // geometry.page_bytes
            pages = last_page - first_page + 1
        return self._with_open_cost(self.flash.read_cost(pages))

    def delete(self, name: str) -> None:
        """Delete a file and release its pages."""
        entry = self._entry(name)
        self._pages_used -= entry.pages_allocated
        del self._files[name]

    def truncate(self, name: str, size_bytes: int = 0) -> None:
        """Shrink a file to ``size_bytes`` (no-op growth is rejected)."""
        entry = self._entry(name)
        if size_bytes < 0 or size_bytes > entry.size_bytes:
            raise FilesystemError(
                f"truncate size {size_bytes} invalid for file of "
                f"size {entry.size_bytes}"
            )
        new_pages = self.flash.geometry.pages_for(size_bytes)
        self._pages_used -= entry.pages_allocated - new_pages
        entry.size_bytes = size_bytes
        entry.pages_allocated = new_pages

    # -- helpers ---------------------------------------------------------------

    def _entry(self, name: str) -> _FileEntry:
        try:
            return self._files[name]
        except KeyError:
            raise FilesystemError(f"no such file: {name!r}") from None

    def _reserve(self, pages: int) -> None:
        if self._pages_used + pages > self.flash.geometry.total_pages:
            raise FilesystemError(
                f"device full: need {pages} pages, "
                f"{self.flash.geometry.total_pages - self._pages_used} free"
            )
        self._pages_used += pages

    def _with_open_cost(self, cost: Tuple[float, float, int]) -> AccessResult:
        """The one result of an operation: the flash cost ``(latency_s,
        energy_j, bytes_moved)`` plus the file open."""
        latency, energy, nbytes = cost
        return AccessResult(
            latency_s=latency + self.open_overhead_s,
            energy_j=energy + self.open_energy_j,
            bytes_moved=nbytes,
        )
