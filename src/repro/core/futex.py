"""The distributed futex (§III-A).

"DeX supports futexes [...] the core mechanism for implementing thread
synchronization primitives on Linux.  When a remote thread calls a thread
synchronization operation, the operation is effectively translated to one
or more futex system calls.  The futex operations are forwarded to their
original threads and handled at the origin through the original futex
implementation."

The wait queue lives at the origin.  The value check of ``futex_wait``
reads the futex word *through the distributed address space at the origin*,
so a futex word that is exclusively owned by some remote node is pulled
back by the consistency protocol exactly as it would be in the real system.
The check and the enqueue happen with no intervening yield, giving the
atomicity the kernel gets from the futex hash-bucket lock.
"""

from __future__ import annotations

import struct
from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, Generator, Optional, Tuple

from repro.sim import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.process import DexProcess

#: futex words are 32-bit integers, as on Linux
FUTEX_WORD = 4


class FutexTable:
    """Per-process futex wait queues, kept at the origin."""

    def __init__(self, proc: "DexProcess"):
        self.proc = proc
        #: addr -> FIFO of (wake event, waiting tid); the tid identifies
        #: the logical thread to the futex probes (the deadlock detector's
        #: block frames, the sanitizer's wake happens-before edge)
        self._queues: Dict[int, Deque[Tuple[Event, int]]] = {}
        #: set by fail-stop recovery when the thread set is broken: any
        #: further wait would sleep for a wake that may never come, so it
        #: raises this instead (see :meth:`fail_all`)
        self.poisoned: Optional[BaseException] = None

    def read_word(self, addr: int) -> int:
        """Synchronous read of the futex word from the origin's frames.
        Callers must have faulted the page to the origin first."""
        raw = self.proc.node_state(self.proc.origin).frames.read(addr, FUTEX_WORD)
        return struct.unpack("<I", raw)[0]

    def wait(self, origin_ctx, addr: int, expected: int) -> Generator:
        """FUTEX_WAIT at the origin: if the word still equals *expected*,
        sleep until woken; otherwise return ``"eagain"`` immediately.

        *origin_ctx* is the execution context of the paired original
        thread; its fault path pulls the futex page to the origin.
        """
        proc = self.proc
        params = proc.cluster.params
        if self.poisoned is not None:
            raise self.poisoned
        proc.stats.futex_waits += 1
        with proc.cluster.engine.span(
            "futex.wait", node=proc.origin, tid=origin_ctx.tid, addr=addr,
        ) as span:
            yield params.futex_op_cost
            # fault the futex page to the origin (read access), then compare
            # and enqueue atomically (no yields in between)
            yield from origin_ctx.fault_in(addr, FUTEX_WORD, write=False)
            if self.read_word(addr) != expected:
                if span is not None:
                    span.attrs["result"] = "eagain"
                return "eagain"
            tid = origin_ctx.tid
            # *before* we sleep: the deadlock detector records the block
            # frame and raises DeadlockError on a wait-for cycle
            for waits in proc.hooks["futex_wait"]:
                waits(tid, addr)
            waiter = proc.cluster.engine.event(name=f"futex@{addr:#x}")
            self._queues.setdefault(addr, deque()).append((waiter, tid))
            try:
                yield waiter
            finally:
                for resumed in proc.hooks["futex_resume"]:
                    resumed(tid)
        return "woken"

    def wake(self, origin_ctx, addr: int, count: int) -> Generator:
        """FUTEX_WAKE at the origin: wake up to *count* waiters; returns
        how many were woken."""
        proc = self.proc
        params = proc.cluster.params
        proc.stats.futex_wakes += 1
        with proc.cluster.engine.span(
            "futex.wake", node=proc.origin, tid=origin_ctx.tid, addr=addr,
        ):
            yield params.futex_op_cost
            queue = self._queues.get(addr)
            woken = 0
            while queue and woken < count:
                waiter, waiter_tid = queue.popleft()
                # the wake orders the waker's past before the woken
                # thread's future
                for woke in proc.hooks["futex_wake"]:
                    woke(origin_ctx.tid, waiter_tid)
                waiter.succeed()
                woken += 1
            if queue is not None and not queue:
                del self._queues[addr]
        return woken

    # ------------------------------------------------------------------
    # fail-stop recovery hooks (see repro.chaos.recovery)
    # ------------------------------------------------------------------

    def drop_waiters(self, tids, exc: BaseException) -> int:
        """Dequeue every waiter whose tid is in *tids* (threads that died
        with a failed node) and fail its wake event with *exc*, so the
        delegation handler blocked on the wait errors out instead of
        sleeping forever on behalf of a dead requester.  Returns how many
        waiters were dropped."""
        if not tids:
            return 0
        dropped = 0
        for addr in list(self._queues):
            queue = self._queues[addr]
            keep: Deque[Tuple[Event, int]] = deque()
            for waiter, tid in queue:
                if tid in tids:
                    if not waiter.triggered:
                        waiter.fail(exc)
                    for resumed in self.proc.hooks["futex_resume"]:
                        resumed(tid)
                    dropped += 1
                else:
                    keep.append((waiter, tid))
            if keep:
                self._queues[addr] = keep
            else:
                del self._queues[addr]
        return dropped

    def fail_all(self, exc: BaseException) -> int:
        """Error out *every* waiter and poison future waits: threads died
        with a failed node, so a wake another thread was counting on may
        never come and any further sleeping could hang the run.  Returns
        how many pending waiters were failed."""
        self.poisoned = exc
        failed = 0
        for addr, queue in list(self._queues.items()):
            for waiter, tid in queue:
                if not waiter.triggered:
                    waiter.fail(exc)
                for resumed in self.proc.hooks["futex_resume"]:
                    resumed(tid)
                failed += 1
        self._queues.clear()
        return failed
