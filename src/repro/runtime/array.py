"""Typed array views over distributed memory.

A :class:`DistArray` wraps ``(address, dtype, length)`` and moves data
chunk-wise through the fault path, so every element an application computes
with has actually traveled the consistency protocol.  Bulk reads/writes
return numpy arrays for vectorized computation between protocol events.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional, Union

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.process import DexProcess
    from repro.core.thread import ThreadContext
    from repro.runtime.alloc import MemoryAllocator

_I64 = np.dtype(np.int64)
_F64 = np.dtype(np.float64)


class DistArray:
    """A fixed-length typed array living in the distributed address space."""

    def __init__(self, addr: int, dtype, length: int, name: str = ""):
        self.addr = addr
        self.dtype = np.dtype(dtype)
        self.length = length
        self.name = name

    @property
    def itemsize(self) -> int:
        return self.dtype.itemsize

    @property
    def nbytes(self) -> int:
        return self.length * self.itemsize

    @property
    def end(self) -> int:
        return self.addr + self.nbytes

    def _addr_of(self, index: int) -> int:
        if not 0 <= index < self.length:
            raise IndexError(f"{self.name or 'DistArray'}[{index}] out of range")
        return self.addr + index * self.itemsize

    # -- bulk access -----------------------------------------------------

    def read(
        self,
        ctx: "ThreadContext",
        lo: int = 0,
        hi: Optional[int] = None,
        site: str = "",
    ) -> Generator:
        """Read elements ``[lo, hi)``; returns a fresh numpy array."""
        hi = self.length if hi is None else hi
        if not 0 <= lo <= hi <= self.length:
            raise IndexError(f"bad slice [{lo}:{hi}] of length {self.length}")
        out = np.empty(hi - lo, self.dtype)
        yield from ctx.read_into(self.addr + lo * self.itemsize, out, site)
        return out

    def write(
        self, ctx: "ThreadContext", lo: int, values: np.ndarray, site: str = ""
    ) -> Generator:
        """Write *values* starting at element *lo*."""
        values = np.ascontiguousarray(values, dtype=self.dtype)
        if lo < 0 or lo + values.size > self.length:
            raise IndexError(
                f"write of {values.size} elements at {lo} overflows "
                f"length {self.length}"
            )
        yield from ctx.write(self.addr + lo * self.itemsize, values, site)

    # -- element access ----------------------------------------------------

    def get(self, ctx: "ThreadContext", index: int, site: str = "") -> Generator:
        raw = yield from ctx.read(self._addr_of(index), self.itemsize, site)
        return np.frombuffer(raw, dtype=self.dtype)[0]

    def set(
        self, ctx: "ThreadContext", index: int, value, site: str = ""
    ) -> Generator:
        yield from ctx.write(
            self._addr_of(index),
            np.asarray([value], dtype=self.dtype).tobytes(),
            site,
        )

    def add(
        self, ctx: "ThreadContext", index: int, delta, site: str = ""
    ) -> Generator:
        """Atomic in-place add to one element; returns the old value.

        The two dominant accumulator types route to the specialised
        ThreadContext atomics (same fault/sanitizer semantics, identical
        IEEE/two's-complement arithmetic, no numpy round trip); anything
        else takes the generic read-modify-write closure path."""
        dtype = self.dtype
        if dtype == _I64:
            return ctx.atomic_add_i64(self._addr_of(index), int(delta), site)
        if dtype == _F64:
            return ctx.atomic_add_f64(self._addr_of(index), float(delta), site)
        return self._add_generic(ctx, index, delta, site)

    def _add_generic(
        self, ctx: "ThreadContext", index: int, delta, site: str = ""
    ) -> Generator:
        dtype = self.dtype

        def bump(raw: bytes) -> bytes:
            value = np.frombuffer(raw, dtype=dtype)[0]
            return np.asarray([value + delta], dtype=dtype).tobytes()

        old = yield from ctx.atomic_update(
            self._addr_of(index), self.itemsize, bump, site
        )
        return np.frombuffer(old, dtype=dtype)[0]

    # ------------------------------------------------------------------

    def page_span(self, page_size: int = 4096) -> int:
        """How many pages this array touches."""
        first = self.addr // page_size
        last = (self.end - 1) // page_size
        return last - first + 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DistArray {self.name or ''} {self.dtype}[{self.length}] "
            f"@{self.addr:#x}>"
        )


def alloc_array(
    allocator: "MemoryAllocator",
    dtype,
    length: int,
    *,
    name: str = "",
    page_aligned: bool = False,
    segment: str = "heap",
) -> DistArray:
    """Allocate a :class:`DistArray` from *allocator*.

    ``page_aligned=True`` is the §IV-B layout fix (``posix_memalign`` /
    the ``aligned`` attribute); ``segment`` picks the heap or the globals
    segment."""
    dtype = np.dtype(dtype)
    nbytes = dtype.itemsize * length
    if segment == "heap":
        if page_aligned:
            addr = allocator.posix_memalign(nbytes)
        else:
            addr = allocator.malloc(nbytes)
    elif segment == "globals":
        align = allocator.page_size if page_aligned else 8
        addr = allocator.alloc_global(nbytes, align=align, tag=name)
        if page_aligned:
            allocator.pad_to_page()
    else:
        raise ValueError(f"unknown segment {segment!r}")
    return DistArray(addr, dtype, length, name=name)
