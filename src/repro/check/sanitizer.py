"""The coherence sanitizer: happens-before race checking for the protocol.

The MRSW protocol promises sequential consistency, which means every pair
of conflicting accesses (read/write or write/write on the same page from
different threads) must be ordered by some chain of protocol messages.
The sanitizer verifies that promise directly, instead of trusting the
directory bookkeeping:

* every thread carries a :class:`~repro.check.vclock.VectorClock`;
* every *(node, page)* copy of a page carries a clock: an access joins
  the copy's clock into the thread (same-node accesses are serialized by
  the node's memory system, exactly like cache coherence on real
  hardware) and then publishes the thread's clock back into the copy;
* every page has a *home clock*: a revocation ack joins the revoked
  copy's clock into it (the loser's accesses are complete), and a grant
  joins it into the requester's copy clock (the grant carries the page's
  causal history to the new owner).  A handoff whose page the old writer
  forwards straight to the requester keeps both edges: the writer
  forwards before it acks, and the requester installs the page only
  after the grant, so ack and grant still order the two.

With those edges, any access pair ordered by the protocol is ordered in
the clocks — so an **unordered** conflicting pair is a protocol bug (a
lost invalidation, a reordered grant, a stale owner set).  Reports carry
both access sites, the per-page protocol message chain, and the directory
backend in use.

The sanitizer also re-validates the directory/PTE agreement on **every
ownership transition** (`on_transition`, called when a fault commits),
via :meth:`repro.core.directory.CoherenceDirectory.check_entry` and
:meth:`repro.core.protocol.ConsistencyProtocol.check_page` — the
per-transition version of the teardown-only ``check_invariants``, which
also holds the home to current data whenever the page has no writer.

Scope: the sanitizer orders all same-node accesses through the copy
clock, so it targets *cross-node protocol* bugs, not application-level
races between threads on one node (the engine's run-to-yield semantics
already serialize those deterministically).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, Optional, Tuple

from repro.check.vclock import VectorClock
from repro.core.errors import DexError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.process import DexProcess

#: protocol events kept per page for violation reports
_CHAIN_DEPTH = 12


class CoherenceViolation(DexError):
    """An unordered conflicting access pair, or a per-transition
    directory/PTE invariant failure — either way, a protocol bug."""


@dataclass
class Access:
    """One recorded page access, with the thread-clock value it carries."""

    tid: int
    clock: int
    node: int
    write: bool
    site: str
    time_us: float

    def describe(self) -> str:
        kind = "write" if self.write else "read"
        where = f" at {self.site!r}" if self.site else ""
        return f"{kind} by t{self.tid} on node {self.node}{where} @{self.time_us:.1f}us"


class _PageMeta:
    """Per-page race-checking state: last write, the read set since that
    write, and a bounded protocol message chain for reports."""

    __slots__ = ("last_write", "readers", "chain")

    def __init__(self) -> None:
        self.last_write: Optional[Access] = None
        self.readers: Dict[int, Access] = {}
        self.chain: Deque[str] = deque(maxlen=_CHAIN_DEPTH)


class CoherenceSanitizer:
    """Per-process dynamic checker: an observer (``DexProcess.add_hook``)
    of the fault, protocol and futex layers' probes."""

    def __init__(self, proc: "DexProcess"):
        self.proc = proc
        #: validate directory/PTE agreement at every ownership transition;
        #: seeded-bug tests flip this off to exercise the pure
        #: happens-before detector
        self.transition_checks = True
        self._threads: Dict[int, VectorClock] = {}
        self._copies: Dict[Tuple[int, int], VectorClock] = {}
        self._homes: Dict[int, VectorClock] = {}
        self._pages: Dict[int, _PageMeta] = {}
        # counters, surfaced by reports and tests
        self.accesses_checked = 0
        self.transitions_checked = 0
        self.edges_recorded = 0

    # -- state accessors -----------------------------------------------------

    def _thread_clock(self, tid: int) -> VectorClock:
        vc = self._threads.get(tid)
        if vc is None:
            vc = self._threads[tid] = VectorClock()
        return vc

    def _copy_clock(self, node: int, vpn: int) -> VectorClock:
        key = (node, vpn)
        vc = self._copies.get(key)
        if vc is None:
            vc = self._copies[key] = VectorClock()
        return vc

    def _home_clock(self, vpn: int) -> VectorClock:
        vc = self._homes.get(vpn)
        if vc is None:
            vc = self._homes[vpn] = VectorClock()
        return vc

    def _meta(self, vpn: int) -> _PageMeta:
        meta = self._pages.get(vpn)
        if meta is None:
            meta = self._pages[vpn] = _PageMeta()
        return meta

    def _now(self) -> float:
        return self.proc.cluster.engine.now

    def _chain(self, vpn: int, text: str) -> None:
        self._meta(vpn).chain.append(f"@{self._now():.1f}us {text}")

    # -- data-plane hook -----------------------------------------------------

    def on_access(self, node: int, tid: int, vpn: int, write: bool, site: str) -> None:
        """Check one page access against the last conflicting accesses and
        record it.  Called from the fault layer's read/write/atomic paths
        *after* the page is secured at *node*."""
        vc = self._thread_clock(tid)
        vc.tick(tid)
        copy = self._copy_clock(node, vpn)
        vc.merge(copy)
        meta = self._meta(vpn)
        access = Access(
            tid=tid, clock=vc.get(tid), node=node, write=write,
            site=site, time_us=self._now(),
        )
        self.accesses_checked += 1
        if write:
            self._check_pair(vpn, meta, access, meta.last_write, vc)
            for prev in meta.readers.values():
                self._check_pair(vpn, meta, access, prev, vc)
            meta.last_write = access
            meta.readers.clear()
        else:
            self._check_pair(vpn, meta, access, meta.last_write, vc)
            meta.readers[tid] = access
        copy.merge(vc)

    def _check_pair(
        self,
        vpn: int,
        meta: _PageMeta,
        current: Access,
        previous: Optional[Access],
        vc: VectorClock,
    ) -> None:
        if previous is None or previous.tid == current.tid:
            return  # program order covers same-thread pairs
        if vc.dominates(previous.tid, previous.clock):
            return
        kinds = ("write/write" if previous.write and current.write
                 else "read/write")
        chain = "\n    ".join(meta.chain) or "(no protocol messages recorded)"
        raise CoherenceViolation(
            f"unordered {kinds} pair on page {vpn:#x} "
            f"(directory backend: {self.proc.protocol.directory.backend}):\n"
            f"  earlier: {previous.describe()}\n"
            f"  current: {current.describe()}\n"
            f"  no happens-before chain orders these accesses — a grant or "
            f"invalidation was lost or reordered\n"
            f"  protocol message chain for this page:\n    {chain}"
        )

    # -- protocol happens-before edges --------------------------------------

    def on_grant(self, vpn: int, requester: int, write: bool, entry=None) -> None:
        """A grant publishes the page's causal history (the home clock) to
        the requester's copy.  Called at the home when a grant is issued;
        the grant and the requester's install travel the same in-order
        connection, so merging here is safe.  *entry* is the directory
        entry of a grant just decided: it must satisfy MRSW right now."""
        if entry is not None and self.transition_checks:
            self.proc.protocol.directory.check_entry(vpn, entry)
        self.edges_recorded += 1
        self._copy_clock(requester, vpn).merge(self._home_clock(vpn))
        kind = "exclusive" if write else "shared"
        self._chain(vpn, f"grant {kind} -> node {requester}")

    def on_revoke(self, vpn: int, loser: int, downgrade: bool, requester: int) -> None:
        """A revocation ack proves the loser's accesses are complete; its
        copy clock joins the home clock.  Called at the home, per loser,
        after the (local or acked remote) invalidation applied."""
        self.edges_recorded += 1
        self._home_clock(vpn).merge(self._copy_clock(loser, vpn))
        verb = "downgrade" if downgrade else "invalidate"
        self._chain(
            vpn, f"{verb} node {loser} (on behalf of node {requester})"
        )

    def on_retry(self, vpn: int, requester: int) -> None:
        self._chain(vpn, f"busy: node {requester} told to retry")

    def on_home_lookup(self, vpn: int, node: int, home: int) -> None:
        self._chain(vpn, f"home lookup by node {node} -> home {home}")

    # -- synchronization edges ----------------------------------------------

    def on_futex_wake(self, waker_tid: int, woken_tid: int) -> None:
        """FUTEX_WAKE orders everything the waker did before the wake ahead
        of everything the woken thread does after it."""
        self.edges_recorded += 1
        self._thread_clock(woken_tid).merge(self._thread_clock(waker_tid))

    def on_spawn(self, parent_tid: int, child_tid: int) -> None:
        """Thread creation orders the parent's past before the child."""
        self.edges_recorded += 1
        self._thread_clock(child_tid).merge(self._thread_clock(parent_tid))

    # -- lifecycle -----------------------------------------------------------

    def on_node_dead(self, node: int) -> None:
        """A node fail-stopped: discard its copy clocks.  Ownership edges
        for the reclaim itself were already recorded via :meth:`on_revoke`
        / :meth:`on_grant` by the recovery walk; anything left is state for
        copies that no longer exist anywhere."""
        for key in [k for k in self._copies if k[0] == node]:
            del self._copies[key]

    def on_unmap(self, vpn_start: int, vpn_end: int) -> None:
        """Drop all per-page state for an unmapped range."""
        for vpn in [v for v in self._pages if vpn_start <= v < vpn_end]:
            del self._pages[vpn]
        for vpn in [v for v in self._homes if vpn_start <= v < vpn_end]:
            del self._homes[vpn]
        for key in [k for k in self._copies if vpn_start <= k[1] < vpn_end]:
            del self._copies[key]

    # -- per-transition invariant checking -----------------------------------

    def on_transition(self, vpn: int) -> None:
        """Re-validate the MRSW invariants for *vpn* right after an
        ownership transition committed (the requester installed its PTE).

        Nodes with an active in-flight fault for the page are skipped
        (their PTE legitimately lags their grant), and a busy entry is
        skipped entirely (the next operation is already rewriting it)."""
        if not self.transition_checks:
            return
        protocol = self.proc.protocol
        entry = protocol.directory.lookup(vpn)
        if entry is None or entry.busy:
            return
        self.transitions_checked += 1
        try:
            protocol.directory.check_entry(vpn, entry)
            protocol.check_page(vpn, entry, skip_inflight=True)
        except AssertionError as err:
            chain = "\n    ".join(self._meta(vpn).chain) or \
                "(no protocol messages recorded)"
            raise CoherenceViolation(
                f"directory/PTE invariant broken after a transition of page "
                f"{vpn:#x} (directory backend: "
                f"{protocol.directory.backend}): {err}\n"
                f"  protocol message chain for this page:\n    {chain}"
            ) from err
