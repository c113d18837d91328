"""The wait-for deadlock detector.

Threads block in three places in this codebase: futex waits (via work
delegation at the origin), work-delegation round-trips themselves, and
leader-follower fault coalescing (§III-C followers sleep on the leader's
in-flight fault).  Each blocking site pushes a :class:`BlockFrame` onto
the thread's stack and — when the frame has a known *target* thread —
adds a wait-for edge:

* futex wait  -> the thread currently holding the futex-backed lock
  (registered by :class:`repro.runtime.sync.Mutex` on acquisition);
* follower    -> the leader thread of the coalesced fault;
* delegation  -> no edge (the origin handler is not a thread), but the
  frame appears in the per-thread stacks of a cycle report.

Every thread has at most one outgoing edge (a blocked thread waits on
exactly one thing), so cycle detection is a single chain walk at edge
insertion time — online and O(cycle length).  A cycle raises
:class:`DeadlockError` with the cycle and each member's sim-time stack
of block frames.

An :class:`EngineWaitWatcher` observing the simulation engine additionally
tracks what every sim process is waiting on, so :meth:`DeadlockDetector.
report` can describe a stuck simulation (used by ``DexCluster.simulate``
when the main thread never finishes) even when no thread-level cycle
exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core.errors import DexError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.process import DexProcess
    from repro.sim.engine import Engine, Event, Process


class DeadlockError(DexError):
    """A cycle in the wait-for graph: these threads can never make
    progress."""


@dataclass
class BlockFrame:
    """One blocking site a thread is currently inside."""

    tid: int
    kind: str       # "futex" | "follower" | "delegation"
    detail: str     # human-readable operand (address, op name, ...)
    target: Optional[int]  # the thread waited on, when known
    since_us: float
    addr: Optional[int] = None  # futex word address, for futex frames

    def describe(self) -> str:
        waiting = f" -> t{self.target}" if self.target is not None else ""
        return f"{self.kind}({self.detail}){waiting} since {self.since_us:.1f}us"


class EngineWaitWatcher:
    """Engine observer recording the Event every sim process last waited on
    (a private sleep is not a wait the engine reports, so a record may be
    stale: :meth:`pending` checks it against the process), plus which buffer
    pools are currently exhausted (``repro.net.buffers`` fires the
    stall/resume probes)."""

    def __init__(self) -> None:
        self.waiting: Dict["Process", "Event"] = {}
        #: pool -> sim time the oldest outstanding stall began
        self.stalled_pools: Dict[object, float] = {}
        self._stall_depth: Dict[object, int] = {}

    @classmethod
    def ensure(cls, engine: "Engine") -> "EngineWaitWatcher":
        """The engine's watcher, installing one on first use (processes of
        every DexProcess on the cluster share it)."""
        watcher = engine.hooks.find(cls)
        if watcher is None:
            watcher = cls()
            engine.add_hook(watcher)
        return watcher

    def on_process_waiting(self, process: "Process", event: "Event") -> None:
        self.waiting[process] = event

    def on_process_finished(self, process: "Process") -> None:
        self.waiting.pop(process, None)

    def on_pool_stall(self, pool) -> None:
        depth = self._stall_depth.get(pool, 0)
        if depth == 0:
            self.stalled_pools[pool] = pool.engine.now
        self._stall_depth[pool] = depth + 1

    def on_pool_resume(self, pool) -> None:
        depth = self._stall_depth.get(pool, 0) - 1
        if depth <= 0:
            self._stall_depth.pop(pool, None)
            self.stalled_pools.pop(pool, None)
        else:
            self._stall_depth[pool] = depth

    def pending(self) -> List[str]:
        lines = []
        for process, event in self.waiting.items():
            if process.triggered or process._waiting_on is not event:
                continue
            lines.append(f"{process.name} waiting on {event!r}")
        return lines

    def stalls(self) -> List[str]:
        """Human-readable lines for every pool currently exhausted."""
        lines = []
        for pool, since in self.stalled_pools.items():
            depth = self._stall_depth.get(pool, 0)
            lines.append(
                f"pool {pool.name or '<anonymous>'} exhausted "
                f"({pool.chunks} chunks, {depth} waiter(s)) "
                f"since {since:.1f}us"
            )
        return lines


class DeadlockDetector:
    """Per-process online wait-for-graph cycle detection."""

    def __init__(self, proc: "DexProcess"):
        self.proc = proc
        self._frames: Dict[int, List[BlockFrame]] = {}
        #: futex word address -> tid of the lock holder (maintained by
        #: the runtime Mutex; bare futex users create no edges)
        self._lock_holder: Dict[int, int] = {}
        self.edges_checked = 0
        self.watcher = EngineWaitWatcher.ensure(proc.cluster.engine)

    # -- frame stack management ---------------------------------------------

    def _push(self, frame: BlockFrame) -> None:
        self._frames.setdefault(frame.tid, []).append(frame)
        if frame.target is not None:
            self.edges_checked += 1
            self._check_cycle(frame.tid)

    def _pop(self, tid: int, kind: str) -> None:
        stack = self._frames.get(tid)
        if stack:
            for i in range(len(stack) - 1, -1, -1):
                if stack[i].kind == kind:
                    del stack[i]
                    break
            if not stack:
                del self._frames[tid]

    def _now(self) -> float:
        return self.proc.cluster.engine.now

    # -- blocking-site hooks -------------------------------------------------

    def on_futex_wait(self, tid: int, addr: int) -> None:
        """Thread *tid* is about to sleep on the futex at *addr*; called
        with the word check already done, before the enqueue."""
        target = self._lock_holder.get(addr)
        self._push(BlockFrame(
            tid=tid, kind="futex", detail=f"{addr:#x}",
            target=target, since_us=self._now(), addr=addr,
        ))

    def on_futex_resume(self, tid: int) -> None:
        self._pop(tid, "futex")

    def on_follower_wait(self, tid: int, leader_tid: int, vpn: int) -> None:
        """Thread *tid* coalesced behind *leader_tid*'s in-flight fault."""
        self._push(BlockFrame(
            tid=tid, kind="follower", detail=f"page {vpn:#x}",
            target=leader_tid if leader_tid >= 0 else None,
            since_us=self._now(),
        ))

    def on_follower_resume(self, tid: int) -> None:
        self._pop(tid, "follower")

    def on_delegation_call(self, tid: int, op: str, node: int) -> None:
        """Thread *tid* (at *node*) entered a delegation round-trip."""
        self._push(BlockFrame(
            tid=tid, kind="delegation", detail=f"{op}@node{node}",
            target=None, since_us=self._now(),
        ))

    def on_delegation_return(self, tid: int) -> None:
        self._pop(tid, "delegation")

    def on_thread_dead(self, tid: int) -> None:
        """Thread *tid* died with a fail-stopped node: discard its block
        frames (a dead thread waits on nothing) so they neither feed
        wait-for edges nor clutter the post-mortem."""
        self._frames.pop(tid, None)

    # -- lock ownership (fed by the runtime Mutex) ---------------------------

    def on_lock_acquired(self, addr: int, tid: int) -> None:
        self._lock_holder[addr] = tid

    def on_lock_released(self, addr: int, tid: int) -> None:
        if self._lock_holder.get(addr) == tid:
            del self._lock_holder[addr]

    # -- cycle detection -----------------------------------------------------

    def _blocked_on(self, tid: int) -> Optional[int]:
        """The thread *tid* currently waits on, or None."""
        stack = self._frames.get(tid)
        if not stack:
            return None
        top = stack[-1]
        if top.kind == "futex" and top.addr is not None:
            # resolve through the holder map at walk time: the lock may
            # have changed hands since the frame was pushed
            return self._lock_holder.get(top.addr)
        return top.target

    def _check_cycle(self, start: int) -> None:
        path = [start]
        current = start
        while True:
            nxt = self._blocked_on(current)
            if nxt is None:
                return
            if nxt in path:
                cycle = path[path.index(nxt):]
                raise DeadlockError(self._format_cycle(cycle))
            path.append(nxt)
            current = nxt

    def _format_cycle(self, cycle: List[int]) -> str:
        arrows = " -> ".join(f"t{tid}" for tid in cycle + [cycle[0]])
        lines = [f"wait-for cycle detected at {self._now():.1f}us: {arrows}"]
        for tid in cycle:
            lines.append(f"  t{tid} blocked in:")
            for frame in reversed(self._frames.get(tid, [])):
                lines.append(f"    {frame.describe()}")
        return "\n".join(lines)

    # -- stall reporting -----------------------------------------------------

    def report(self) -> str:
        """All currently blocked threads with their sim-time stacks, plus
        every sim process still parked on an event — the post-mortem for
        a simulation that ended with work left undone."""
        lines = ["wait-for state:"]
        if not self._frames:
            lines.append("  (no thread is inside a tracked blocking site)")
        for tid in sorted(self._frames):
            lines.append(f"  t{tid} blocked in:")
            for frame in reversed(self._frames[tid]):
                lines.append(f"    {frame.describe()}")
        stalls = self.watcher.stalls()
        if stalls:
            lines.append("exhausted buffer pools:")
            for entry in sorted(stalls):
                lines.append(f"  {entry}")
        pending = self.watcher.pending()
        if pending:
            lines.append("pending sim processes:")
            for entry in sorted(pending):
                lines.append(f"  {entry}")
        return "\n".join(lines)
