"""Thread synchronization primitives on the distributed futex.

"Applications can use thread synchronization primitives based on the futex
as is, regardless of their locations" (§III-A).  These are the standard
glibc constructions: the mutex word and barrier words live in the
distributed address space, atomics on them run through the consistency
protocol (exclusive ownership), and sleeping/waking goes through the
futex — which work delegation executes at the origin.

Both primitives accept ``page_aligned=True`` so applications can keep
their synchronization words off hot data pages (one of §IV's layout
optimizations).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.thread import ThreadContext
    from repro.runtime.alloc import MemoryAllocator

#: mutex word states (glibc-style three-state futex mutex)
_FREE = 0
_LOCKED_CONTENDED = 2


class Mutex:
    """A futex-based mutex usable from any node."""

    def __init__(self, allocator: "MemoryAllocator", *, page_aligned: bool = False,
                 name: str = ""):
        align = allocator.page_size if page_aligned else 8
        self.addr = allocator.alloc_global(4, align=align, tag=name or "mutex")
        self.name = name

    def lock(self, ctx: "ThreadContext") -> Generator:
        while True:
            observed = yield from ctx.atomic_cas_u32(
                self.addr, _FREE, _LOCKED_CONTENDED, site=f"mutex:{self.name}"
            )
            if observed == _FREE:
                # who holds this lock: the wait-for detector gives futex
                # waiters on it a blocked-on edge
                for acquired in ctx.proc.hooks["lock_acquired"]:
                    acquired(self.addr, ctx.tid)
                return
            # contended: sleep until the holder unlocks (the futex re-checks
            # the word at the origin, so a lost wake cannot strand us)
            yield from ctx.futex_wait(self.addr, _LOCKED_CONTENDED)

    def unlock(self, ctx: "ThreadContext") -> Generator:
        for released in ctx.proc.hooks["lock_released"]:
            released(self.addr, ctx.tid)
        yield from ctx.write_u32(self.addr, _FREE, site=f"mutex:{self.name}")
        yield from ctx.futex_wake(self.addr, 1)


class Barrier:
    """A generation-counting barrier for a fixed party count.

    The arrival counter and the generation word share a cache
    line — deliberately, because that is how pthread_barrier_t lays out and
    is a realistic source of cross-node traffic at region boundaries."""

    def __init__(
        self,
        allocator: "MemoryAllocator",
        parties: int,
        *,
        page_aligned: bool = False,
        name: str = "",
    ):
        if parties < 1:
            raise ValueError(f"barrier needs at least one party, got {parties}")
        align = allocator.page_size if page_aligned else 8
        self.count_addr = allocator.alloc_global(4, align=align, tag=name or "barrier")
        self.gen_addr = allocator.alloc_global(4, align=4)
        self.parties = parties
        self.name = name

    def wait(self, ctx: "ThreadContext") -> Generator:
        """Block until all parties arrive; returns True for exactly one
        thread per generation (the 'serial thread', as pthread_barrier)."""
        site = f"barrier:{self.name}"
        generation = yield from ctx.read_u32(self.gen_addr, site=site)
        arrived = yield from ctx.atomic_add_u32(self.count_addr, 1, site=site)
        if arrived + 1 == self.parties:
            yield from ctx.write_u32(self.count_addr, 0, site=site)
            yield from ctx.write_u32(
                self.gen_addr, (generation + 1) & 0xFFFFFFFF, site=site
            )
            yield from ctx.futex_wake(self.gen_addr, self.parties)
            return True
        while True:
            yield from ctx.futex_wait(self.gen_addr, generation)
            current = yield from ctx.read_u32(self.gen_addr, site=site)
            if current != generation:
                return False
