"""A distributed process: threads + one address space spanning the rack.

:class:`DexProcess` owns the per-node virtual-memory state (page table,
frames, VMA replica, in-flight fault table), the consistency protocol and
its ownership directory, the migration/delegation/futex services, and the
thread table.  The address-space layout mirrors a conventional process:

* ``GLOBALS_BASE``  — the static data segment (one VMA, mapped at start);
* ``HEAP_BASE``     — malloc arena VMAs, created by ``mmap`` on demand;
* ``MMAP_BASE``     — anonymous mappings requested via ``ctx.mmap``;
* ``STACK_BASE``    — one small VMA per thread, tagged ``stack:<tid>``
  (stack-borne false sharing — §IV-B's first case — happens here).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Generator,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.check import make_sanitizers
from repro.core.balancer import MigrationHints
from repro.core.delegation import DelegationService
from repro.core.directory import DirectoryShard, OwnerHintCache
from repro.core.errors import DexError
from repro.core.fault import FaultHandler, InFlightFault
from repro.core.files import FileService
from repro.core.futex import FutexTable
from repro.core.migration import MigrationService
from repro.core.protocol import ConsistencyProtocol
from repro.core.stats import DexStats
from repro.core.thread import DexThread, ThreadContext
from repro.core.vma_sync import VmaSync
from repro.memory.frames import FrameStore
from repro.memory.page_table import PageTable
from repro.memory.vma import AddressSpaceMap, Protection
from repro.net.messages import Message, MsgType
from repro.sim import Interrupt
from repro.sim.engine import Hooks

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.cluster import DexCluster

GLOBALS_BASE = 0x1000_0000
GLOBALS_SIZE = 64 * 1024 * 1024
HEAP_BASE = 0x4000_0000
MMAP_BASE = 0x6000_0000
STACK_BASE = 0x7000_0000
STACK_SIZE = 64 * 1024


@dataclass
class NodeProcessState:
    """Everything one node keeps for one distributed process."""

    page_table: PageTable = field(default_factory=PageTable)
    frames: FrameStore = field(default_factory=FrameStore)
    vma_map: AddressSpaceMap = field(default_factory=AddressSpaceMap)
    #: vpn -> in-flight faults (the §III-C hash table)
    inflight: Dict[int, List[InFlightFault]] = field(default_factory=dict)
    #: this node's slice of the coherence directory (only the page homes
    #: selected by the configured backend ever hold entries here)
    directory_shard: DirectoryShard = field(default_factory=DirectoryShard)
    #: LRU of last-known page homes (sharded backend's hop-skipping cache)
    owner_hints: OwnerHintCache = field(default_factory=OwnerHintCache)


#: what an observer of one process (:meth:`DexProcess.add_hook`) may define
#: ``on_<probe>`` for — DESIGN.md §3 "Observation plane" says where each
#: fires, with what, and who listens by default
PROCESS_PROBES = (
    "access", "fault_begin", "follower_wait", "follower_resume", "transition",
    "grant", "revoke", "retry", "invalidate", "home_lookup", "redirect",
    "spawn", "unmap", "node_dead", "thread_dead",
    "futex_wait", "futex_resume", "futex_wake",
    "delegation_call", "delegation_return", "lock_acquired", "lock_released",
)


class DexProcess:
    """One application process whose threads may span the whole rack."""

    _pids = itertools.count(1)

    def __init__(self, cluster: "DexCluster", origin: int = 0, name: str = ""):
        self.cluster = cluster
        self.pid = next(self._pids)
        self.origin = origin
        self.name = name or f"proc{self.pid}"
        self.stats = DexStats()
        #: the observers of this process and their per-probe lists (see
        #: :meth:`add_hook`); built first, the services below hold lists
        self.hooks = Hooks(*PROCESS_PROBES)
        #: the cluster's repro.obs span tracer, or None when tracing is off;
        #: every instrumented hot path guards on this single attribute
        self.obs = cluster.tracer

        self._node_states: Dict[int, NodeProcessState] = {}
        #: bumped whenever a node's state is dropped; ThreadContext keys
        #: its memoised node-state fast path on this so a recreated state
        #: can never be shadowed by a stale cache
        self.state_gen = 0
        self.nodes_with_worker: Set[int] = set()
        #: node -> event triggered once the remote worker there is set up;
        #: concurrent first migrations serialize on it
        self.worker_ready: Dict[int, Any] = {}
        self.ever_migrated = False
        #: set by fail-stop recovery (repro.chaos) when the process cannot
        #: survive a node failure; every blocking service entry point calls
        #: :meth:`check_failed` so live threads observe the verdict
        self.failed: Optional[BaseException] = None

        #: pending scheduler-initiated migration targets (see
        #: :mod:`repro.core.balancer`); honoured at ``ctx.checkpoint()``
        self.migration_hints = MigrationHints()

        self.protocol = ConsistencyProtocol(self)
        self.faults = FaultHandler(self)
        self.migration = MigrationService(self)
        self.delegation = DelegationService(self)
        self.futex = FutexTable(self)
        self.vma_sync = VmaSync(self)
        self.files = FileService(self)
        # the repro.check dynamic checkers DEX_SANITIZE / SimParams.sanitize
        # enables (none by default)
        for checker in make_sanitizers(self):
            self.add_hook(checker)

        self.threads: List[DexThread] = []
        self._next_tid = 0
        self._mmap_cursor = MMAP_BASE
        self._heap_cursor = HEAP_BASE
        self._next_stack = STACK_BASE

        # the static data segment exists from the start
        page = cluster.params.page_size
        state = self.node_state(origin)
        state.vma_map.mmap(
            GLOBALS_BASE, GLOBALS_SIZE, Protection.READ_WRITE, tag="globals"
        )

    def add_hook(self, observer: Any) -> None:
        """Let *observer* watch this process: whichever ``on_<probe>``
        methods of :data:`PROCESS_PROBES` it defines are called from then
        on, after those of the observers added before it; what one raises
        reaches the thread whose action fired the probe.  (The §IV-A fault
        profiler is ``proc.add_hook(FaultTracer())``.)"""
        self.hooks.add(observer)

    # ------------------------------------------------------------------
    # per-node state
    # ------------------------------------------------------------------

    def node_state(self, node: int) -> NodeProcessState:
        state = self._node_states.get(node)
        if state is None:
            state = NodeProcessState()
            state.page_table = PageTable()
            state.frames = FrameStore(self.cluster.params.page_size)
            state.vma_map = AddressSpaceMap(self.cluster.params.page_size)
            state.owner_hints = OwnerHintCache(
                self.cluster.params.owner_hint_capacity
            )
            self._node_states[node] = state
        return state

    def iter_node_states(self) -> Iterator[Tuple[int, NodeProcessState]]:
        return iter(self._node_states.items())

    def drop_node_state(self, node: int) -> None:
        """Discard everything held at *node*.  Used by fail-stop recovery:
        a crashed node's page tables, frames, and any directory shard it
        hosted are gone, and keeping them would let invariant checks read
        state that no longer exists anywhere."""
        self._node_states.pop(node, None)
        self.state_gen += 1

    def check_failed(self) -> None:
        """Raise the recovery verdict if this process has been failed."""
        if self.failed is not None:
            raise self.failed

    def active_nodes(self) -> List[int]:
        """Nodes currently holding any state for this process."""
        return sorted(set(self._node_states) | {self.origin})

    # ------------------------------------------------------------------
    # threads
    # ------------------------------------------------------------------

    def spawn_thread(
        self,
        fn: Callable[..., Generator],
        *args: Any,
        name: str = "",
        at_node: Optional[int] = None,
        parent_tid: Optional[int] = None,
    ) -> DexThread:
        """Create and start a thread running *fn(ctx, *args)*.

        The thread gets its own stack VMA (tagged so the fault profiler can
        attribute stack-borne false sharing).  It starts at *at_node*
        (default: the origin).  *parent_tid* identifies the creating
        thread, giving the coherence sanitizer its spawn ordering edge."""
        thread = DexThread(self, self._next_tid, name=name)
        self._next_tid += 1
        if parent_tid is not None:
            for spawned in self.hooks["spawn"]:
                spawned(parent_tid, thread.tid)
        thread.current_node = self.origin if at_node is None else at_node
        origin_map = self.node_state(self.origin).vma_map
        thread.stack_base = self._next_stack
        origin_map.mmap(
            self._next_stack,
            STACK_SIZE,
            Protection.READ_WRITE,
            tag=f"stack:{thread.name}",
        )
        self._next_stack += STACK_SIZE * 2  # guard gap between stacks

        def runner() -> Generator:
            ctx = ThreadContext(thread)
            try:
                result = yield from fn(ctx, *args)
            except Interrupt as stop:
                if getattr(stop.cause, "halts_thread", False):
                    # fail-stop: the node executing this thread crashed.
                    # Park forever — recovery fails the sim process once
                    # the origin's failure detector notices, so joiners see
                    # the death at detection time, not at crash time.
                    yield stop.cause.parked
                raise
            return result

        thread.sim_process = self.cluster.engine.process(
            runner(), name=f"{self.name}.{thread.name}"
        )
        self.threads.append(thread)
        return thread

    def join_all(self, threads: Optional[List[DexThread]] = None) -> Generator:
        """Wait for *threads* (default: all spawned so far); returns their
        results in order."""
        targets = list(self.threads if threads is None else threads)
        results = yield self.cluster.engine.all_of(
            [t.sim_process for t in targets]
        )
        return results

    # ------------------------------------------------------------------
    # address-space services (always executed at the origin; remote
    # threads reach them through work delegation)
    # ------------------------------------------------------------------

    def do_mmap(self, length: int, prot: int, tag: str = "") -> Generator:
        params = self.cluster.params
        yield params.vma_op_cost
        page = params.page_size
        aligned = (length + page - 1) // page * page
        start = self._mmap_cursor
        self._mmap_cursor += aligned + page  # guard page
        self.node_state(self.origin).vma_map.mmap(
            start, aligned, Protection(prot), tag=tag
        )
        return start

    def do_munmap(self, start: int, length: int) -> Generator:
        params = self.cluster.params
        yield params.vma_op_cost
        page = params.page_size
        end = (start + length + page - 1) // page * page
        start -= start % page
        state = self.node_state(self.origin)
        state.vma_map.munmap(start, end - start)
        vpn_start, vpn_end = start // page, end // page
        state.page_table.drop_range(vpn_start, vpn_end)
        state.frames.drop_range(vpn_start, vpn_end)
        self.protocol.directory.drop_range(vpn_start, vpn_end)
        for unmapped in self.hooks["unmap"]:
            unmapped(vpn_start, vpn_end)
        # shrinks are broadcast eagerly (§III-D)
        yield from self.vma_sync.broadcast_shrink(start, end)

    def do_mprotect(self, start: int, length: int, prot: int) -> Generator:
        params = self.cluster.params
        yield params.vma_op_cost
        page = params.page_size
        end = (start + length + page - 1) // page * page
        start -= start % page
        origin_map = self.node_state(self.origin).vma_map
        old = origin_map.find_overlapping(start, end)
        downgrade = any(
            (vma.prot & ~Protection(prot)) != Protection.NONE for vma in old
        )
        origin_map.mprotect(start, end - start, Protection(prot))
        if downgrade:
            yield from self.vma_sync.broadcast_shrink(start, end, new_prot=prot)
            # revoke remote ownership so stale write-capable PTEs cannot
            # bypass the downgraded protection
            yield from self.protocol.revoke_range(
                start // page, (end + page - 1) // page
            )

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------

    def shutdown(self) -> Generator:
        """Broadcast process exit to every remote worker and drop their
        state ("original process exit [is] delivered to the remote worker",
        §III-A)."""
        engine = self.cluster.engine
        targets = sorted(self.nodes_with_worker)
        pending = []
        for node in targets:
            msg = Message(
                MsgType.PROCESS_EXIT,
                src=self.origin,
                dst=node,
                payload={"pid": self.pid},
            )
            pending.append(engine.process(self.cluster.net.send(msg)))
        if pending:
            yield engine.all_of(pending)

    def handle_exit_msg(self, msg: Message) -> Generator:
        node = msg.dst
        yield self.cluster.params.vma_op_cost
        self.nodes_with_worker.discard(node)
        state = self._node_states.get(node)
        if state is not None and self.protocol.directory.entries_hosted(node) == 0:
            # a node hosting directory shard entries keeps its state: the
            # metadata outlives the worker thread that ran there
            self._node_states.pop(node, None)
            self.state_gen += 1

    def release(self) -> None:
        """Drop every per-node and per-thread structure this process
        holds, so a retired process costs nothing but its (small) object
        header until garbage collection takes the rest.

        Called by :meth:`DexCluster.retire_process` after the threads
        have finished; the cluster removes the pid from its routing table
        in the same step, so no message can reach the released state."""
        for node in list(self._node_states):
            self._node_states.pop(node, None)
        self.state_gen += 1
        self.threads.clear()
        self.worker_ready.clear()
        self.nodes_with_worker.clear()
