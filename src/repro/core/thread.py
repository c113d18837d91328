"""Threads and the application-facing execution context.

A :class:`DexThread` wraps an application generator function running on the
simulation engine.  Application code receives a :class:`ThreadContext`
(`ctx`) and expresses everything it does through it:

* ``yield from ctx.migrate(node)`` — the paper's "simple function call"
  that relocates the thread (``popcorn_migrate`` in the real system);
* ``yield from ctx.compute(cpu_us=..., mem_bytes=..., working_set=...)`` —
  local computation, charged against a CPU core and the node's fair-share
  DRAM bandwidth (with an LLC miss model for the memory-bound behaviour
  §V-B discusses);
* ``yield from ctx.read/write/atomic_update(...)`` — accesses through the
  distributed address space, which fault pages in via the consistency
  protocol;
* ``yield from ctx.futex_wait/futex_wake(...)`` — forwarded to the origin
  by work delegation, exactly like the real futex path.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from repro.core.errors import DexError
from repro.core.fault import FaultHandler
from repro.memory.page_table import EXCLUSIVE
from repro.sim import Process

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.process import DexProcess

_INF = float("inf")


def threads_by_node(proc: "DexProcess") -> dict:
    """Live application threads resident per node — ``{node: count}``.

    Read-only over the thread list (a DexScope sampler calling this cannot
    perturb the run); nodes with no resident threads are absent."""
    counts: dict = {}
    for thread in proc.threads:
        if thread.alive:
            node = thread.current_node
            counts[node] = counts.get(node, 0) + 1
    return counts


class DexThread:
    """One application thread of a distributed process."""

    def __init__(self, proc: "DexProcess", tid: int, name: str = ""):
        self.proc = proc
        self.tid = tid
        self.name = name or f"t{tid}"
        self.current_node = proc.origin
        self.migration_count = 0
        self.sim_process: Optional[Process] = None  # set by DexProcess.spawn
        #: diagnostic set by fail-stop recovery when the node this thread
        #: was executing on died (the sim process is failed alongside it)
        self.failed: Optional[str] = None

    @property
    def alive(self) -> bool:
        return self.sim_process is not None and self.sim_process.is_alive

    @property
    def result(self) -> Any:
        if self.sim_process is None or not self.sim_process.triggered:
            raise DexError(f"thread {self.name} has not finished")
        return self.sim_process.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DexThread {self.name} @node{self.current_node}>"


def _done(value: Any) -> Generator:
    """A fast path's result that is known at call time: ``yield from``
    finishes at once with *value*.  A plain generator, not a reused
    iterator object: it costs less to build and run (EXPERIMENTS.md,
    "Awaiter plane"), and two results that exist at once stay apart."""
    return value
    yield 0.0  # never reached: it only makes this a generator


def _hold_core(cores: Any, cpu_us: float) -> Generator:
    """The cpu-only compute fast path: sleep *cpu_us* on a core slot the
    caller has already taken, then give the slot back, at the point
    ``_compute_impl``'s ``finally`` does, and on an Interrupt too."""
    try:
        yield cpu_us
    finally:
        if cores._waiters:
            cores._waiters.popleft().succeed()
        else:
            cores._in_use -= 1


def _make_atomic_add(fmt: str, general: Callable[..., Generator]):
    """``ThreadContext.atomic_add_*`` for the 8-byte struct format *fmt*.
    Eager fast path: with an EXCLUSIVE PTE and nobody observing accesses the
    update is purely synchronous, so skip the fault handler and hand back
    the old value through :func:`_done`.  Mirrors *general*, the
    :class:`FaultHandler` method that remains the general path."""
    codec = struct.Struct(fmt)
    unpack_from, pack_into = codec.unpack_from, codec.pack_into

    def atomic_add(self, addr: int, delta, site: str = "") -> Generator:
        """Atomically add *delta* to the little-endian 8-byte word at
        *addr*; returns the old value."""
        proc = self.proc
        node = self.thread.current_node
        page = self._page_size
        vpn = addr // page
        offset = addr - vpn * page
        if not self._on_access and offset <= page - 8:
            if node == self._state_node and proc.state_gen == self._state_gen:
                state = self._state
            else:
                state = proc.node_state(node)
                self._state_node = node
                self._state_gen = proc.state_gen
                self._state = state
            pte = state.page_table._entries.get(vpn)
            if pte is not None and pte.state is EXCLUSIVE:
                # an EXCLUSIVE page's slot is a private bytearray or empty
                # (FrameStore.own at the grant): never a shared snapshot
                frame = state.frames._frames.get(vpn)
                if frame is None:
                    frame = state.frames.frame(vpn)
                old = unpack_from(frame, offset)[0]
                pack_into(frame, offset, old + delta)
                return _done(old)
        return general(proc.faults, node, self.tid, addr, delta, site)

    return atomic_add


class ThreadContext:
    """The handle application code uses for every interaction with DeX."""

    def __init__(self, thread: DexThread):
        self.thread = thread
        self.proc = thread.proc
        self.cluster = thread.proc.cluster
        self.engine = self.cluster.engine
        self.params = self.cluster.params
        #: immutable per-cluster facts, cached off the attribute chains the
        #: hot paths would otherwise re-walk on every call
        self._page_size = self.cluster.params.page_size
        self._nodes = self.cluster.nodes
        #: the process's ``access`` probe, held: the eager atomic tests it
        self._on_access = self.proc.hooks["access"]
        #: memoised per-node state for the distributed-memory fast paths,
        #: keyed (and revalidated) by the thread's current node
        self._state_node = -1
        self._state_gen = -1
        self._state = None

    @property
    def tid(self) -> int:
        return self.thread.tid

    @property
    def node(self) -> int:
        """The node this thread currently runs on."""
        return self.thread.current_node

    @property
    def now(self) -> float:
        return self.engine.now

    # -- migration ---------------------------------------------------------

    def migrate(self, dest: int) -> Generator:
        """Relocate this thread to *dest* — the one-line conversion the
        paper's Table I counts."""
        yield from self.proc.migration.migrate(self.thread, dest)

    def migrate_back(self) -> Generator:
        """Return to the origin node."""
        yield from self.proc.migration.migrate(self.thread, self.proc.origin)

    def checkpoint(self) -> Generator:
        """A safe migration point: if a scheduler policy (see
        :mod:`repro.core.balancer`) posted a migration hint for this
        thread, honour it now.  Returns the node migrated to, or None.
        Applications sprinkle this at loop heads to opt in to automatic
        migration — the §III-A extension of scheduler-initiated moves."""
        target = self.proc.migration_hints.take(self.tid)
        if target is not None and target != self.thread.current_node:
            yield from self.proc.migration.migrate(self.thread, target)
            return target
        return None

    # -- computation ---------------------------------------------------------

    def compute(
        self,
        cpu_us: float = 0.0,
        mem_bytes: float = 0.0,
        working_set: Optional[float] = None,
    ) -> Generator:
        """Local computation at the current node.

        Occupies one CPU core for the duration.  ``mem_bytes`` of memory
        traffic is filtered by an LLC miss model (``working_set`` is the
        hot footprint it is drawn from) and served by the node's fair-share
        DRAM bandwidth; the effective duration is the max of the CPU time
        and the memory time, modelling a core stalled on memory.  CPU time
        alone is a private sleep (the process yields the number); with DRAM
        traffic it is a ``Timeout`` joined to the transfer by ``all_of``.

        Returns the generator directly (no pass-through frame): ``yield
        from ctx.compute(...)`` delegates to it immediately.
        """
        if not (0.0 <= cpu_us < _INF and 0.0 <= mem_bytes < _INF):  # NaN too
            for name, value in (("cpu_us", cpu_us), ("mem_bytes", mem_bytes)):
                if not 0.0 <= value < _INF:
                    raise ValueError(
                        f"compute {name} must be >= 0 and finite, got {value!r}")
        # compute is the hottest instrumented call site: the tracing-off
        # path must stay a single None check, so no engine.span() here
        tracer = self.engine.tracer
        if tracer is None:
            if mem_bytes <= 0:
                # cpu-only with a free core: take the slot now and skip
                # _compute_impl's frame (bit-identical scheduling)
                cores = self._nodes[self.thread.current_node].cores
                if cores._in_use < cores.capacity:
                    if cpu_us <= 0:
                        # a free core taken and given back with no yield:
                        # nobody waits for a core while one is free
                        return _done(None)
                    cores._in_use += 1
                    return _hold_core(cores, cpu_us)
            return self._compute_impl(cpu_us, mem_bytes, working_set)
        return self._compute_traced(tracer, cpu_us, mem_bytes, working_set)

    def _compute_traced(
        self,
        tracer,
        cpu_us: float,
        mem_bytes: float,
        working_set: Optional[float],
    ) -> Generator:
        with tracer.span(
            "compute", node=self.thread.current_node, tid=self.tid,
            cpu_us=cpu_us, mem_bytes=mem_bytes,
        ):
            yield from self._compute_impl(cpu_us, mem_bytes, working_set)

    def _compute_impl(
        self,
        cpu_us: float,
        mem_bytes: float,
        working_set: Optional[float],
    ) -> Generator:
        node = self.cluster.nodes[self.thread.current_node]
        engine = self.engine
        cores = node.cores
        if cores._in_use < cores.capacity:
            # inlined uncontended Resource.acquire: take the slot without
            # suspending — an already-granted slot resumes at the same
            # instant either way
            cores._in_use += 1
        else:
            yield cores.acquire()
        try:
            traffic = 0.0
            if mem_bytes > 0:
                traffic = mem_bytes * self._miss_rate(working_set)
            if traffic > 0 and cpu_us > 0:
                yield engine.all_of(
                    [node.dram.consume(traffic), engine.timeout(cpu_us)]
                )
            elif traffic > 0:
                yield node.dram.consume(traffic)
            elif cpu_us > 0:
                yield cpu_us
        finally:
            # inlined Resource.release for the held slot
            if cores._waiters:
                cores._waiters.popleft().succeed()
            else:
                cores._in_use -= 1

    def _miss_rate(self, working_set: Optional[float]) -> float:
        """Fraction of memory traffic that reaches DRAM: streaming from a
        hot set that fits in the LLC mostly hits cache."""
        if working_set is None or working_set <= 0:
            return 1.0  # streaming / no reuse
        llc = float(self.params.llc_bytes)
        if working_set <= llc:
            return 0.05
        return 0.05 + 0.95 * (1.0 - llc / working_set)

    def sleep(self, us: float) -> Generator:
        yield us

    # -- distributed memory ----------------------------------------------------

    def read(self, addr: int, nbytes: int, site: str = "") -> Generator:
        """Read bytes through the distributed address space."""
        out = bytearray(nbytes)
        yield from self.read_into(addr, out, site)
        return bytes(out)

    def read_into(self, addr: int, out, site: str = "") -> Generator:
        """Fill the writable buffer *out* from the distributed address space."""
        return self.proc.faults.read_into(
            self.thread.current_node, self.tid, addr, out, site
        )

    def write(self, addr: int, data, site: str = "") -> Generator:
        """Write a buffer's bytes through the distributed address space."""
        return self.proc.faults.write(
            self.thread.current_node, self.tid, addr, data, site
        )

    def fault_in(self, addr: int, nbytes: int, write: bool, site: str = "") -> Generator:
        """Touch pages without transferring data to/from the caller —
        useful for prefetch-style warm-up."""
        yield from self.proc.faults.ensure_range(
            self.thread.current_node, self.tid, addr, nbytes, write, site
        )

    def atomic_update(
        self, addr: int, nbytes: int, fn: Callable[[bytes], bytes], site: str = ""
    ) -> Generator:
        """Atomic read-modify-write (single page); returns the old bytes."""
        return self.proc.faults.atomic_update(
            self.thread.current_node, self.tid, addr, nbytes, fn, site
        )

    # convenience typed accessors ------------------------------------------------

    def read_u32(self, addr: int, site: str = "") -> Generator:
        raw = yield from self.read(addr, 4, site)
        return struct.unpack("<I", raw)[0]

    def write_u32(self, addr: int, value: int, site: str = "") -> Generator:
        yield from self.write(addr, struct.pack("<I", value & 0xFFFFFFFF), site)

    def read_i64(self, addr: int, site: str = "") -> Generator:
        raw = yield from self.read(addr, 8, site)
        return struct.unpack("<q", raw)[0]

    def write_i64(self, addr: int, value: int, site: str = "") -> Generator:
        yield from self.write(addr, struct.pack("<q", value), site)

    atomic_add_i64 = _make_atomic_add("<q", FaultHandler.atomic_add_i64)
    atomic_add_f64 = _make_atomic_add("<d", FaultHandler.atomic_add_f64)

    def atomic_add_u32(self, addr: int, delta: int, site: str = "") -> Generator:
        old = yield from self.atomic_update(
            addr,
            4,
            lambda raw: struct.pack(
                "<I", (struct.unpack("<I", raw)[0] + delta) & 0xFFFFFFFF
            ),
            site,
        )
        return struct.unpack("<I", old)[0]

    def atomic_cas_u32(self, addr: int, expect: int, new: int, site: str = "") -> Generator:
        """Compare-and-swap on a 32-bit word; returns the value observed
        (CAS succeeded iff it equals *expect*)."""
        observed = {}

        def swap(raw: bytes) -> bytes:
            value = struct.unpack("<I", raw)[0]
            observed["value"] = value
            if value == expect:
                return struct.pack("<I", new & 0xFFFFFFFF)
            return raw

        yield from self.atomic_update(addr, 4, swap, site)
        return observed["value"]

    # -- synchronization (futex, via work delegation) -----------------------------

    def futex_wait(self, addr: int, expected: int) -> Generator:
        """FUTEX_WAIT: sleep while the word at *addr* equals *expected*.
        Returns "woken" or "eagain"."""
        result = yield from self.proc.delegation.call(
            self.thread.current_node, self.tid, "futex_wait",
            addr=addr, expected=expected,
        )
        return result

    def futex_wake(self, addr: int, count: int = 1) -> Generator:
        """FUTEX_WAKE: wake up to *count* waiters; returns how many."""
        result = yield from self.proc.delegation.call(
            self.thread.current_node, self.tid, "futex_wake",
            addr=addr, count=count,
        )
        return result

    # -- memory management (delegated to the origin, §III-D) ---------------------

    def mmap(self, length: int, prot: int = 3, tag: str = "") -> Generator:
        """Map fresh memory; returns the start address."""
        start = yield from self.proc.delegation.call(
            self.thread.current_node, self.tid, "mmap",
            length=length, prot=prot, tag=tag,
        )
        return start

    def munmap(self, start: int, length: int) -> Generator:
        yield from self.proc.delegation.call(
            self.thread.current_node, self.tid, "munmap",
            start=start, length=length,
        )

    def mprotect(self, start: int, length: int, prot: int) -> Generator:
        yield from self.proc.delegation.call(
            self.thread.current_node, self.tid, "mprotect",
            start=start, length=length, prot=prot,
        )

    # -- file I/O (delegated to the origin, §III-A) --------------------------

    def fopen(self, path: str, mode: str = "r") -> Generator:
        """Open a file on the shared filesystem; returns an fd, or -1 for
        a missing file opened read-only.  Executes at the origin via work
        delegation, like every stateful OS feature."""
        fd = yield from self.proc.delegation.call(
            self.thread.current_node, self.tid, "file_open",
            path=path, mode=mode,
        )
        return fd

    def fread(self, fd: int, length: int) -> Generator:
        """Read up to *length* bytes from the descriptor."""
        text = yield from self.proc.delegation.call(
            self.thread.current_node, self.tid, "file_read",
            fd=fd, length=length,
        )
        return text.encode("latin-1")

    def fwrite(self, fd: int, data: bytes) -> Generator:
        """Write *data* at the descriptor's offset; returns bytes written."""
        count = yield from self.proc.delegation.call(
            self.thread.current_node, self.tid, "file_write",
            fd=fd, data=data.decode("latin-1"),
        )
        return count

    def fseek(self, fd: int, offset: int) -> Generator:
        result = yield from self.proc.delegation.call(
            self.thread.current_node, self.tid, "file_seek",
            fd=fd, offset=offset,
        )
        return result

    def fclose(self, fd: int) -> Generator:
        yield from self.proc.delegation.call(
            self.thread.current_node, self.tid, "file_close", fd=fd,
        )

    # -- thread management -----------------------------------------------------

    def spawn(self, fn: Callable, *args: Any, name: str = "") -> DexThread:
        """Create a new thread running *fn(ctx, *args)* at this thread's
        current node (pthread_create semantics)."""
        return self.proc.spawn_thread(
            fn, *args, name=name, at_node=self.thread.current_node,
            parent_tid=self.tid,
        )

    def join(self, thread: DexThread) -> Generator:
        """Wait for *thread* to finish; returns its result."""
        if thread.sim_process is None:
            raise DexError(f"thread {thread.name} was never started")
        result = yield thread.sim_process
        return result
