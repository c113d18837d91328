"""malloc / posix_memalign over the simulated address space.

Two arenas:

* the **globals** segment (static data) — a bump allocator inside the
  process's pre-mapped globals VMA; the analogue of compiler-laid-out
  ``.data``/``.bss``, including the paper's ``aligned`` attribute fixes;
* the **heap** — bump allocation from slab VMAs mapped on demand.

Allocation is deliberately sequential-first-fit with no per-thread arenas:
that is what glibc effectively gives the paper's unmodified applications,
and it is what co-locates different threads' objects on one page — the
false sharing §IV-B's optimizations remove via ``posix_memalign``.

Allocation itself costs no simulated time (it is noise next to the
workloads); its *layout* drives all protocol behaviour.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.process import GLOBALS_BASE, GLOBALS_SIZE, HEAP_BASE
from repro.memory.vma import Protection

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.process import DexProcess

_HEAP_SLAB = 64 * 1024 * 1024


class AllocationError(Exception):
    """Arena exhausted."""


class MemoryAllocator:
    """Process-wide allocator (the libc of a DeX application)."""

    def __init__(self, proc: "DexProcess"):
        self.proc = proc
        self.page_size = proc.cluster.params.page_size
        self._globals_cursor = GLOBALS_BASE
        self._heap_cursor = HEAP_BASE
        self._heap_mapped_end = HEAP_BASE
        self.bytes_allocated = 0

    # ------------------------------------------------------------------

    @staticmethod
    def _align_up(addr: int, align: int) -> int:
        if align <= 0 or align & (align - 1):
            raise ValueError(f"alignment must be a power of two, got {align}")
        return (addr + align - 1) & ~(align - 1)

    def alloc_global(self, size: int, align: int = 8, tag: str = "") -> int:
        """Carve *size* bytes out of the static data segment.  ``align`` is
        the paper's ``__attribute__((aligned(N)))``: page-aligning a global
        gives it (and what follows) its own page."""
        if size <= 0:
            raise ValueError(f"allocation of non-positive size {size}")
        start = self._align_up(self._globals_cursor, align)
        if start + size > GLOBALS_BASE + GLOBALS_SIZE:
            raise AllocationError("globals segment exhausted")
        self._globals_cursor = start + size
        self.bytes_allocated += size
        return start

    def malloc(self, size: int, align: int = 8) -> int:
        """Heap allocation; sequential bump, so consecutive allocations
        share pages (the unoptimized layout)."""
        if size <= 0:
            raise ValueError(f"allocation of non-positive size {size}")
        start = self._align_up(self._heap_cursor, align)
        end = start + size
        self._ensure_heap_mapped(end)
        self._heap_cursor = end
        self.bytes_allocated += size
        return start

    def posix_memalign(self, size: int) -> int:
        """Page-aligned heap allocation — the §IV-B fix for heap-borne
        false sharing.  The next allocation starts on a fresh page too, so
        the object truly owns its pages."""
        start = self.malloc(size, align=self.page_size)
        # burn the tail of the last page so nothing shares it
        self._heap_cursor = self._align_up(self._heap_cursor, self.page_size)
        return start

    def pad_to_page(self) -> None:
        """Advance the global cursor to a page boundary (padding between
        two globals, the other §IV-B static-data fix)."""
        self._globals_cursor = self._align_up(self._globals_cursor, self.page_size)

    def _ensure_heap_mapped(self, end: int) -> None:
        if end <= self._heap_mapped_end:
            return
        origin_map = self.proc.node_state(self.proc.origin).vma_map
        while self._heap_mapped_end < end:
            origin_map.mmap(
                self._heap_mapped_end,
                _HEAP_SLAB,
                Protection.READ_WRITE,
                tag="heap",
            )
            self._heap_mapped_end += _HEAP_SLAB

    # ------------------------------------------------------------------

    def globals_used(self) -> int:
        return self._globals_cursor - GLOBALS_BASE
