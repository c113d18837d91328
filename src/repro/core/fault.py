"""Page-fault handling with leader-follower coalescing (§III-C).

Each node keeps a per-process table of in-flight faults ("a per-process
hash table to track all ongoing fault handling").  The first thread to
fault on a page becomes the **leader** and runs the consistency protocol;
threads faulting on the same page with a compatible access type become
**followers** and simply wait for the leader's PTE update.  A follower (or
a thread whose needed access type the leader's grant does not cover)
re-checks the PTE after the leader finishes and loops, possibly becoming a
leader itself.

The fast path — an access whose PTE already permits it — costs nothing and,
crucially, never yields to the engine, so local accesses of a single-node
run are free, exactly like MMU hits on real hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from struct import Struct
from typing import TYPE_CHECKING, Dict, Generator, List, Optional

from repro.core.errors import SegmentationFault
from repro.core.stats import FaultRecord
from repro.memory.page_table import EXCLUSIVE, INVALID
from repro.sim import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.process import DexProcess


@dataclass
class InFlightFault:
    """One ongoing fault at one node, visible to followers and to
    invalidation handlers (which must not revoke a page mid-install)."""

    vpn: int
    write: bool
    leader_tid: int
    done: Event
    #: set synchronously when the grant arrives; from that point until
    #: ``done``, an invalidation for this page must wait
    installing: bool = False


def _make_atomic_add(fmt: str):
    """``FaultHandler.atomic_add_*`` for the 8-byte struct format *fmt*:
    :meth:`FaultHandler.atomic_update` specialised for the dominant atomic
    — same fault/probe semantics, no struct/closure round trip."""
    codec = Struct(fmt)
    unpack_from, pack_into = codec.unpack_from, codec.pack_into

    def atomic_add(
        self, node: int, tid: int, addr: int, delta, site: str = ""
    ) -> Generator:
        """Atomically add *delta* to the little-endian 8-byte word at
        *addr*; returns the old value."""
        proc = self.proc
        page = self._page_size
        vpn = addr // page
        if (addr + 7) // page != vpn:
            raise ValueError(
                f"atomic update crosses a page boundary: {addr:#x}+8"
            )
        state = proc.node_state(node)
        # inlined permits() write fast path: an EXCLUSIVE PTE means go
        pte = state.page_table.lookup(vpn)
        if pte is None or pte.state is not EXCLUSIVE:
            if not self.permits(node, vpn, True):
                yield from self._fault(node, tid, vpn, True, site)
        if self._on_access:
            # one write-classified access covers the read-modify-write
            for accessed in self._on_access:
                accessed(node, tid, vpn, True, site)
        frame = state.frames.frame(vpn)
        offset = addr - vpn * page
        old = unpack_from(frame, offset)[0]
        pack_into(frame, offset, old + delta)
        return old

    return atomic_add


class FaultHandler:
    """Per-process fault path; drives :class:`ConsistencyProtocol`."""

    __slots__ = ("proc", "_page_size", "_on_access")

    def __init__(self, proc: "DexProcess"):
        self.proc = proc
        self._page_size = proc.cluster.params.page_size
        #: the ``access`` probe, held: it is tested on every access
        self._on_access = proc.hooks["access"]

    # ------------------------------------------------------------------

    def permits(self, node: int, vpn: int, write: bool) -> bool:
        """Fast-path check: may *node* access *vpn* without a fault?"""
        proc = self.proc
        pte = proc.node_state(node).page_table.lookup(vpn)
        if pte is not None:
            return pte.writable if write else pte.readable
        if node == proc.origin:
            # no PTE and no directory entry: implicitly exclusive at origin
            return proc.protocol.directory.lookup(vpn) is None
        return False

    def ensure_range(
        self, node: int, tid: int, addr: int, nbytes: int, write: bool, site: str = ""
    ) -> Generator:
        """Make every page of ``[addr, addr+nbytes)`` accessible; the fast
        path falls straight through without yielding."""
        page = self._page_size
        for vpn in range(addr // page, (addr + max(nbytes, 1) - 1) // page + 1):
            if not self.permits(node, vpn, write):
                yield from self._fault(node, tid, vpn, write, site)

    # ------------------------------------------------------------------

    def _fault(
        self, node: int, tid: int, vpn: int, write: bool, site: str
    ) -> Generator:
        """The fault, as a generator for the caller to ``yield from``: the
        untraced one is :meth:`_fault_impl` itself, with no frame between."""
        if self.proc.cluster.engine.tracer is None:
            return self._fault_impl(node, tid, vpn, write, site, None)
        return self._fault_traced(node, tid, vpn, write, site)

    def _fault_traced(
        self, node: int, tid: int, vpn: int, write: bool, site: str
    ) -> Generator:
        with self.proc.cluster.engine.tracer.span(
            "fault", node=node, tid=tid, vpn=vpn, write=write, site=site
        ) as span:
            return (yield from self._fault_impl(node, tid, vpn, write, site, span))

    def _fault_impl(
        self, node: int, tid: int, vpn: int, write: bool, site: str, span
    ) -> Generator:
        proc = self.proc
        engine = proc.cluster.engine
        params = proc.cluster.params
        state = proc.node_state(node)
        started = engine.now
        yield params.fault_trap_cost
        # VMA check — may run the on-demand sync, may raise SegmentationFault
        vma = yield from proc.vma_sync.ensure_vma(
            node, vpn * params.page_size, write
        )
        for began in proc.hooks["fault_begin"]:
            began(engine.now, node, tid, write, site, vpn * params.page_size, vma.tag)
        coalesced = False
        while True:
            if self.permits(node, vpn, write):
                break
            yield params.fault_coalesce_lookup_cost
            flist = state.inflight.get(vpn)
            active = [f for f in flist if not f.done.triggered] if flist else []
            if active and params.enable_fault_coalescing:
                leader = active[0]
                if leader.write or not write:
                    # compatible access type: follow (§III-C) — the
                    # leader's grant covers our access
                    coalesced = True
                for waits in proc.hooks["follower_wait"]:
                    waits(tid, leader.leader_tid, vpn)
                try:
                    with engine.span("fault.follow", node=node, tid=tid, vpn=vpn,
                                     leader=leader.leader_tid):
                        yield leader.done
                finally:
                    for resumed in proc.hooks["follower_resume"]:
                        resumed(tid)
                continue  # re-check the PTE, maybe become leader
            # become the leader for this page fault
            fault = InFlightFault(
                vpn=vpn,
                write=write,
                leader_tid=tid,
                done=engine.event(name=f"fault@{vpn:#x}"),
            )
            if flist is None:
                flist = state.inflight[vpn] = []
            flist.append(fault)
            try:
                with engine.span("fault.acquire", node=node, tid=tid, vpn=vpn,
                                 write=write):
                    retries = yield from proc.protocol.acquire_page(
                        node, vpn, write, fault
                    )
            finally:
                # trigger synchronously with the final PTE update so that
                # waiters (followers, invalidations) run strictly after it
                fault.done.succeed()
                flist.remove(fault)
                if not flist:
                    del state.inflight[vpn]
            # (retries feed fault_retries via record_fault — counting them
            # here as well used to double the reported number)
            record = FaultRecord(
                vpn=vpn,
                node=node,
                write=write,
                latency_us=engine.now - started,
                retries=retries,
                coalesced=False,
            )
            proc.stats.record_fault(record)
            if span is not None:
                span.attrs["retries"] = retries
            # the transition committed (our PTE is installed): the directory
            # and every settled node must agree right now
            for committed in proc.hooks["transition"]:
                committed(vpn)
            return
        if coalesced:
            if span is not None:
                span.attrs["coalesced"] = True
            proc.stats.record_fault(
                FaultRecord(
                    vpn=vpn,
                    node=node,
                    write=write,
                    latency_us=engine.now - started,
                    retries=0,
                    coalesced=True,
                )
            )

    # ------------------------------------------------------------------
    # data-plane entry points: fault + synchronous byte access
    # ------------------------------------------------------------------

    def read_into(
        self, node: int, tid: int, addr: int, out, site: str = ""
    ) -> Generator:
        """Fill the writable buffer *out* with the bytes at *addr*."""
        return self._copy(node, tid, addr, out, False, site)

    def write(
        self, node: int, tid: int, addr: int, data, site: str = ""
    ) -> Generator:
        """Write the bytes of the buffer *data* at *addr*."""
        return self._copy(node, tid, addr, data, True, site)

    def _copy(
        self, node: int, tid: int, addr: int, buf, write: bool, site: str
    ) -> Generator:
        """Copy each byte once, between *buf* and its frame, in the
        direction *write* says.  Each page is copied right after it is
        secured, so per-page accesses are sequentially consistent; pages
        never touched read as zeros."""
        proc = self.proc
        page = self._page_size
        buf = memoryview(buf).cast("B")
        state = proc.node_state(node)
        ptes, frames = state.page_table._entries, state.frames
        pos = 0
        while pos < len(buf):
            vpn, off = divmod(addr + pos, page)
            take = min(len(buf) - pos, page - off)
            pte = ptes.get(vpn)
            # inlined permits(): a PTE denies a write unless EXCLUSIVE, a
            # read if INVALID; no PTE is the origin's implicit exclusive
            if (pte.state is not EXCLUSIVE and (write or pte.state is INVALID)
                    if pte is not None else not self.permits(node, vpn, write)):
                yield from self._fault(node, tid, vpn, write, site)
                state = proc.node_state(node)
                ptes, frames = state.page_table._entries, state.frames
            if self._on_access:
                for accessed in self._on_access:
                    accessed(node, tid, vpn, write, site)
            if write:
                frames.frame(vpn)[off : off + take] = buf[pos : pos + take]
            else:
                frame = frames.peek(vpn)
                buf[pos : pos + take] = bytes(take) if frame is None else \
                    memoryview(frame)[off : off + take]
            pos += take

    def atomic_update(
        self, node: int, tid: int, addr: int, nbytes: int, fn, site: str = ""
    ) -> Generator:
        """Atomically read-modify-write *nbytes* at *addr* (must not cross
        a page).  *fn(old_bytes) -> new_bytes*.  Exclusive ownership plus
        the engine's run-to-yield semantics make the update atomic.
        Returns the old bytes."""
        proc = self.proc
        page = self._page_size
        vpn = addr // page
        if (addr + nbytes - 1) // page != vpn:
            raise ValueError(
                f"atomic update crosses a page boundary: {addr:#x}+{nbytes}"
            )
        if not self.permits(node, vpn, True):
            yield from self._fault(node, tid, vpn, True, site)
        if self._on_access:
            # one write-classified access covers the read-modify-write
            for accessed in self._on_access:
                accessed(node, tid, vpn, True, site)
        frames = proc.node_state(node).frames
        old = frames.read(addr, nbytes)
        new = fn(old)
        if len(new) != nbytes:
            raise ValueError("atomic update changed the operand size")
        frames.write(addr, new)
        return old

    atomic_add_i64 = _make_atomic_add("<q")
    atomic_add_f64 = _make_atomic_add("<d")
