"""The page-level memory-consistency protocol (§III-B).

A read-replicate / write-invalidate, multiple-reader / single-writer
protocol providing sequential consistency:

* Pages start implicitly **exclusive at the origin** — a process that never
  migrates never touches the directory.
* A **read** fault gets a shared replica: if some node holds the page
  exclusively, that writer is downgraded and its dirty data flushed to the
  page's *home* first.
* A **write** fault gets exclusive ownership: the home revokes ownership
  from every other owner (including itself) and collects acknowledgements;
  a revoked exclusive owner flushes its dirty page back with the ack.
* Page data accompanies a grant only when the requester's cached copy is
  stale ("the origin simply grants ownership without transferring the page
  data when the remote already has the up-to-date one").
* The directory serializes operations per page with a busy flag; a request
  that catches the page mid-operation is told to **retry** and backs off —
  the slow mode of §V-D's bimodal fault-latency distribution.

Every directory interaction goes through the pluggable
:class:`~repro.core.directory.CoherenceDirectory` layer.  Under the
paper's :class:`~repro.core.directory.OriginDirectory` the home of every
page is the origin and the protocol behaves exactly as §III-B describes;
under :class:`~repro.core.directory.ShardedDirectory` each page's
metadata (and its flush target / grant source) lives at a per-page home
node, requests are home-routed — resolved through the per-node owner-hint
cache, with a redirect when a hint is stale — and the origin stops being
a serialization point for the whole address space.

Timing-race note: a grant reply and a subsequent invalidation for the same
page travel the same in-order RC connection (both originate at the page's
home), so the grant is always *dispatched* first; the requester marks its
in-flight fault ``installing`` synchronously upon receiving the grant, and
the invalidation handler waits for installing faults to finish before
revoking.  This mirrors the careful PTE-update ordering §III-C describes
for the real kernel implementation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, List, Optional, Tuple

from repro.core.directory import PageEntry, make_directory
from repro.core.errors import NodeFailedError, ProtocolError
from repro.memory.page_table import PageState
from repro.net.messages import (
    PAYLOAD_ACK_OK,
    PAYLOAD_REDIRECT,
    PAYLOAD_RETRY,
    Message,
    MsgType,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.fault import InFlightFault
    from repro.core.process import DexProcess

#: grant outcomes, shipped in reply payloads
_RETRY = "retry"
_GRANT = "grant"
_REDIRECT = "redirect"
#: the process was failed by fail-stop recovery (chaos runs only)
_FAILED = "failed"


class ConsistencyProtocol:
    """One instance per distributed process; directory placement is
    delegated to the configured :class:`CoherenceDirectory` backend."""

    def __init__(self, proc: "DexProcess"):
        self.proc = proc
        self.directory = make_directory(proc)

    # ------------------------------------------------------------------
    # requester side (runs at the faulting node, called by the leader)
    # ------------------------------------------------------------------

    def acquire_page(
        self, node: int, vpn: int, write: bool, fault: "InFlightFault"
    ) -> Generator:
        """Obtain (shared or exclusive) ownership of *vpn* for *node*,
        retrying with back-off when the directory is busy.  Installs the
        page data and the PTE; returns the number of retries."""
        proc = self.proc
        proc.check_failed()
        params = proc.cluster.params
        page_table = proc.node_state(node).page_table
        retries = 0
        while True:
            pte = page_table.ensure(vpn)
            if pte.writable if write else pte.readable:
                # resolved while we backed off (e.g. another fault on this
                # node won an exclusive grant that covers us); requesting
                # again could downgrade our own node's ownership
                return retries
            local = self.directory.hosts(node, vpn)
            if local:
                outcome = yield from self.handle_request(
                    node, vpn, write, pte.data_version
                )
            else:
                target = yield from self._resolve_home(node, vpn)
                reply = yield from proc.cluster.net.request(
                    Message(
                        MsgType.PAGE_REQUEST,
                        src=node,
                        dst=target,
                        payload={
                            "pid": proc.pid,
                            "vpn": vpn,
                            "write": write,
                            "known_version": pte.data_version,
                        },
                    )
                )
                if reply.payload["outcome"] == _REDIRECT:
                    # stale owner hint: the node we asked no longer hosts
                    # this page's shard — drop the hint and re-resolve
                    proc.stats.hint_stale += 1
                    proc.node_state(node).owner_hints.invalidate(vpn)
                    for redirected in proc.hooks["redirect"]:
                        redirected(vpn, node, target)
                    continue
                self._note_home(node, vpn, target)
                outcome = (
                    reply.payload["outcome"],
                    reply.payload.get("state"),
                    reply.payload.get("version", 0),
                    reply.page_data,
                )
            status, state_name, version, data = outcome
            if status == _FAILED:
                # the home could not complete the grant because fail-stop
                # recovery failed the process; surface the verdict here
                raise NodeFailedError(
                    reply.payload.get("failed_node", -1),
                    reply.payload.get("error", "process failed"),
                )
            if status == _RETRY:
                retries += 1
                proc.stats.record_busy_retry(vpn)
                yield params.fault_retry_backoff
                continue
            # mark installing *synchronously* with the grant arrival so a
            # following invalidation (FIFO-ordered behind the grant) waits
            fault.installing = True
            if not local:
                frames = proc.node_state(node).frames
                if data is not None:
                    if vpn not in frames:
                        yield params.page_alloc_cost
                    frames.install(vpn, data)
            yield params.pte_update_cost
            # final PTE update is synchronous after the last yield: the
            # caller's data access runs in the same engine step
            pte = page_table.ensure(vpn)
            pte.state = PageState(state_name)
            pte.data_version = version
            return retries

    def _resolve_home(self, node: int, vpn: int) -> Generator:
        """Which node should *node* send its ownership request to?

        Origin backend: every node knows the directory lives at the
        origin.  Sharded backend: the origin owns the shard map; any other
        node consults its owner-hint LRU and, on a miss, resolves the home
        through the origin (the hop that repeat faults skip)."""
        proc = self.proc
        if self.directory.backend != "sharded" or node == proc.origin:
            return self.directory.home(vpn)
        hints = proc.node_state(node).owner_hints
        hinted = hints.get(vpn)
        if hinted is not None and hinted != node:
            proc.stats.hint_hits += 1
            return hinted
        proc.stats.hint_misses += 1
        proc.stats.home_lookups += 1
        with proc.cluster.engine.span("protocol.resolve_home", node=node, vpn=vpn):
            reply = yield from proc.cluster.net.request(
                Message(
                    MsgType.PAGE_HOME_LOOKUP,
                    src=node,
                    dst=proc.origin,
                    payload={"pid": proc.pid, "vpn": vpn},
                )
            )
        home = reply.payload["home"]
        hints.insert(vpn, home)
        for resolved in proc.hooks["home_lookup"]:
            resolved(vpn, node, home)
        return home

    def _note_home(self, node: int, vpn: int, home: int) -> None:
        """Refresh *node*'s owner hint after *home* answered for *vpn*."""
        if self.directory.backend == "sharded" and node != self.proc.origin:
            self.proc.node_state(node).owner_hints.insert(vpn, home)

    # ------------------------------------------------------------------
    # home directory side
    # ------------------------------------------------------------------

    def handle_home_lookup_msg(self, msg: Message) -> Generator:
        """Origin message handler for :data:`MsgType.PAGE_HOME_LOOKUP`:
        resolve a page to its home shard node from the origin-owned map."""
        proc = self.proc
        yield proc.cluster.params.home_lookup_cost
        yield from proc.cluster.net.send(
            msg.make_reply(
                MsgType.PAGE_HOME_INFO,
                {"home": self.directory.home(msg.payload["vpn"])},
            )
        )

    def handle_page_request_msg(self, msg: Message) -> Generator:
        """Home-node message handler for :data:`MsgType.PAGE_REQUEST`."""
        payload = msg.payload
        vpn = payload["vpn"]
        if not self.directory.hosts(msg.dst, vpn):
            # mis-routed request (stale owner hint after a shard remap):
            # this node does not host the page's entry, so it cannot
            # serialize the operation — bounce the requester back to the
            # resolution path instead of guessing
            yield from self.proc.cluster.net.send(
                msg.make_reply(MsgType.PAGE_REDIRECT, PAYLOAD_REDIRECT)
            )
            return
        yield from self.handle_request(
            msg.src,
            vpn,
            payload["write"],
            payload["known_version"],
            reply_to=msg,
        )

    def handle_request(
        self,
        requester: int,
        vpn: int,
        write: bool,
        known_version: int,
        reply_to: Optional[Message] = None,
    ) -> Generator:
        """Resolve one ownership request at the page's home.

        Returns ``(status, state_name, version, data)`` where *data* is the
        page bytes to install (None when the transfer is skipped or the
        requester is the home itself).

        When *reply_to* is given (a remote request), the reply is posted
        **before** the per-page busy flag clears: a later operation for the
        same page must not be able to post an invalidation that overtakes
        this grant on the in-order connection.
        """
        proc = self.proc
        params = proc.cluster.params
        origin = proc.origin
        if proc.failed is not None:
            # fail-stop recovery failed this process: no more grants — a
            # local requester gets the verdict, a remote one an error reply
            # (its faulting thread re-raises it)
            if reply_to is None:
                raise proc.failed
            result = (_FAILED, None, 0, None)
            yield from proc.cluster.net.send(
                reply_to.make_reply(MsgType.PAGE_GRANT, {
                    "outcome": _FAILED,
                    "error": str(proc.failed),
                    "failed_node": getattr(proc.failed, "node", -1),
                })
            )
            return result
        home = self.directory.home(vpn)
        proc.stats.record_directory_request(home)
        self.directory.shard(home).requests_served += 1
        entry, created = self.directory.get_or_create(vpn)
        if created:
            # materialize the origin's implicit exclusive ownership
            proc.node_state(origin).page_table.set_state(
                vpn, PageState.EXCLUSIVE, data_version=0
            )
            proc.node_state(origin).frames.frame(vpn)
        if entry.busy:
            # early-out: trylock on the per-page protocol state failed —
            # the requester lost the race and must back off and retry
            entry.busy_retries += 1
            result = (_RETRY, None, 0, None)
            for refused in proc.hooks["retry"]:
                refused(vpn, requester)
            if reply_to is not None:
                yield from proc.cluster.net.send(
                    reply_to.make_reply(MsgType.PAGE_RETRY, PAYLOAD_RETRY)
                )
            return result
        entry.busy = True
        try:
            with proc.cluster.engine.span(
                "protocol.grant", node=home, vpn=vpn, write=write, requester=requester,
            ):
                yield params.protocol_handler_cost
                try:
                    if write:
                        result = yield from self._grant_exclusive(
                            entry, requester, known_version
                        )
                    else:
                        result = yield from self._grant_shared(
                            entry, requester, known_version
                        )
                except NodeFailedError as err:
                    # a node died mid-grant holding unrecoverable state
                    # (chaos runs only): surface the verdict to the
                    # requester instead of crashing the handler process
                    if reply_to is None:
                        raise
                    result = (_FAILED, None, 0, None)
                    yield from proc.cluster.net.send(
                        reply_to.make_reply(MsgType.PAGE_GRANT, {
                            "outcome": _FAILED,
                            "error": str(err),
                            "failed_node": err.node,
                        })
                    )
                    return result
                # the grant is decided (it travels in-order ahead of any
                # invalidation): a checker may hold the entry to MRSW now
                for granted in proc.hooks["grant"]:
                    granted(vpn, requester, write, entry)
                if reply_to is not None:
                    _status, state_name, version, data = result
                    yield from proc.cluster.net.send(
                        reply_to.make_reply(
                            MsgType.PAGE_GRANT,
                            {
                                "outcome": _GRANT,
                                "state": state_name,
                                "version": version,
                            },
                            page_data=data,
                        )
                    )
        finally:
            entry.busy = False
        return result

    def _grant_exclusive(
        self, entry: PageEntry, requester: int, known_version: int
    ) -> Generator:
        home = self.directory.home(entry.vpn)
        if entry.writer == requester:
            # the current writer re-requesting (a request that was already
            # in flight when its earlier grant landed): reaffirm — it holds
            # the only current copy, so there is nothing to move or bump
            return (_GRANT, PageState.EXCLUSIVE.value, entry.data_version, None)
        losers = sorted(entry.owners - {requester})
        yield from self._revoke(entry, losers, downgrade=False, requester=requester)
        current = entry.data_version
        data = self._data_for_grant(entry, requester, known_version)
        new_version = current + 1
        entry.data_version = new_version
        entry.owners = {requester}
        entry.writer = requester
        if requester == home:
            # local "install": the PTE update is done by acquire_page; the
            # frame is already current at the home after the revocations
            pass
        return (_GRANT, PageState.EXCLUSIVE.value, new_version, data)

    def _grant_shared(
        self, entry: PageEntry, requester: int, known_version: int
    ) -> Generator:
        if entry.writer == requester:
            # the exclusive writer re-requesting read access (a stale
            # retry): its mapping already covers reads — reaffirm it;
            # downgrading here would strand dirty data without a flush
            return (_GRANT, PageState.EXCLUSIVE.value, entry.data_version, None)
        if entry.writer is not None:
            yield from self._revoke(
                entry, [entry.writer], downgrade=True, requester=requester
            )
        entry.writer = None
        current = entry.data_version
        data = self._data_for_grant(entry, requester, known_version)
        entry.owners.add(requester)
        return (_GRANT, PageState.SHARED.value, current, data)

    def _data_for_grant(
        self, entry: PageEntry, requester: int, known_version: int
    ) -> Optional[bytes]:
        """Page bytes to attach to a grant, or None when the transfer is
        skipped.  The transfer is always skippable when the requester holds
        the current version; when it does not, the revocation step has left
        current data at the home."""
        proc = self.proc
        home = self.directory.home(entry.vpn)
        if requester == home:
            return None  # local grant: no wire transfer
        current = entry.data_version
        if known_version == current:
            # requester is up to date; even with the skip optimization
            # disabled, a transfer is only possible if the home copy is
            # current (it may not be when the requester is the sole holder)
            if proc.cluster.params.enable_transfer_skip or not self._home_current(
                home, entry.vpn, current
            ):
                proc.stats.transfers_skipped += 1
                return None
        data = self._home_page_bytes(home, entry.vpn, current)
        proc.stats.pages_transferred += 1
        return data

    def _home_current(self, home: int, vpn: int, version: int) -> bool:
        pte = self.proc.node_state(home).page_table.lookup(vpn)
        return pte is not None and pte.data_version == version

    def _home_page_bytes(self, home: int, vpn: int, version: int) -> bytes:
        """The current page contents, which the revocation step always
        leaves at the page's home."""
        proc = self.proc
        home_pte = proc.node_state(home).page_table.lookup(vpn)
        if home_pte is None or home_pte.data_version != version:
            raise ProtocolError(
                f"home copy of page {vpn:#x} is stale "
                f"(have {home_pte and home_pte.data_version}, need {version})"
            )
        return bytes(proc.node_state(home).frames.frame(vpn))

    def _revoke(
        self,
        entry: PageEntry,
        losers: List[int],
        downgrade: bool,
        requester: int = -1,
    ) -> Generator:
        """Revoke (or downgrade) ownership from *losers*, collecting acks.
        An exclusive loser flushes its dirty page, which is installed in
        the home's frame; the home then always holds current data.
        *requester* is the node whose request triggered the revocation —
        shipped in the invalidation payload so owner-side traces can name
        both parties of the conflict."""
        with self.proc.cluster.engine.span(
            "protocol.revoke", node=self.directory.home(entry.vpn), vpn=entry.vpn,
            downgrade=downgrade, losers=len(losers),
        ):
            yield from self._revoke_impl(entry, losers, downgrade, requester)

    def _revoke_impl(
        self,
        entry: PageEntry,
        losers: List[int],
        downgrade: bool,
        requester: int = -1,
    ) -> Generator:
        proc = self.proc
        engine = proc.cluster.engine
        params = proc.cluster.params
        vpn = entry.vpn
        home = self.directory.home(vpn)
        remote_losers = [n for n in losers if n != home]
        if home in losers:
            yield params.invalidation_handler_cost
            home_pte = proc.node_state(home).page_table.ensure(vpn)
            # the home never discards its frame: it is the flush target
            home_pte.state = PageState.SHARED if downgrade else PageState.INVALID
            for revoked in proc.hooks["revoke"]:
                revoked(vpn, home, downgrade, requester)
        if remote_losers:
            proc.stats.invalidations_sent += len(remote_losers)
            pending = []
            for node in remote_losers:
                msg = Message(
                    MsgType.PAGE_INVALIDATE,
                    src=home,
                    dst=node,
                    payload={
                        "pid": proc.pid,
                        "vpn": vpn,
                        "downgrade": downgrade,
                        "requester": requester,
                    },
                )
                inval_proc = engine.process(
                    proc.cluster.net.request(msg), name=f"inval:{vpn:#x}->{node}"
                )
                if engine.tracer is not None:
                    # the fan-out runs as child processes; seed them with the
                    # revoke span so their net spans stay in this trace
                    engine.tracer.carry(inval_proc)
                pending.append((node, inval_proc))
            chaos = proc.cluster.chaos
            if chaos is None:
                acks = yield engine.all_of([p for _, p in pending])
                acked = remote_losers
            else:
                # reliable mode: collect acks one by one so a loser that
                # fail-stops mid-revocation can be tolerated — by the time
                # its request fails, recovery has already reclaimed its copy
                acks = []
                acked = []
                for node, inval_proc in pending:
                    try:
                        acks.append((yield inval_proc))
                        acked.append(node)
                    except NodeFailedError:
                        if not chaos.is_fenced(node):
                            raise
                        if proc.failed is not None:
                            # the dead loser held the only current copy and
                            # the process could not survive it
                            raise NodeFailedError(
                                node,
                                f"page {vpn:#x}: revocation target node "
                                f"{node} died holding unrecoverable state",
                            )
                        # recovery already dropped the dead loser's copy:
                        # an ack (necessarily without flush data) is implied
            # each ack proves the loser's accesses are complete
            for revoked in proc.hooks["revoke"]:
                for node in acked:
                    revoked(vpn, node, downgrade, requester)
            flushes = [ack for ack in acks if ack.page_data is not None]
            if len(flushes) > 1:
                raise ProtocolError(
                    f"page {vpn:#x}: {len(flushes)} dirty flushes; "
                    "single-writer invariant broken"
                )
            for ack in flushes:
                proc.stats.pages_transferred += 1  # dirty flush on the wire
                proc.node_state(home).frames.install(vpn, ack.page_data)
                home_pte = proc.node_state(home).page_table.ensure(vpn)
                home_pte.data_version = entry.data_version
                if downgrade:
                    # the home now also holds a valid reader copy
                    home_pte.state = PageState.SHARED
                    entry.owners.add(home)
                    # grant-equivalent: the flush left the home with a
                    # readable copy, inheriting the page's history
                    for granted in proc.hooks["grant"]:
                        granted(vpn, home, False)
        if downgrade:
            # downgraded losers stay owners (readers); nothing to remove
            return
        for node in losers:
            entry.owners.discard(node)

    def revoke_range(self, vpn_start: int, vpn_end: int) -> Generator:
        """Pull every page in ``[vpn_start, vpn_end)`` back to exclusive
        origin ownership, flushing dirty remote copies.  Used by protection
        downgrades (mprotect), where remote write ability must be revoked
        through the protocol so directory and PTEs stay consistent.

        Each page is re-acquired through the normal request path, so under
        the sharded backend the revocations run at (and the flushed data
        lands at, then transfers back from) each page's home."""
        from repro.core.fault import InFlightFault

        proc = self.proc
        engine = proc.cluster.engine
        origin = proc.origin
        page_table = proc.node_state(origin).page_table
        for vpn, _entry in self.directory.entries_in_range(vpn_start, vpn_end):
            pte = page_table.lookup(vpn)
            if pte is not None and pte.writable:
                continue  # already exclusive at the origin
            fault = InFlightFault(
                vpn=vpn,
                write=True,
                leader_tid=-1,
                done=engine.event(name=f"revoke@{vpn:#x}"),
            )
            try:
                yield from self.acquire_page(origin, vpn, True, fault)
            finally:
                fault.done.succeed()
            for committed in proc.hooks["transition"]:
                committed(vpn)

    # ------------------------------------------------------------------
    # owner side: servicing revocations
    # ------------------------------------------------------------------

    def handle_invalidate_msg(self, msg: Message) -> Generator:
        """Handler for :data:`MsgType.PAGE_INVALIDATE` at an owner node."""
        proc = self.proc
        engine = proc.cluster.engine
        params = proc.cluster.params
        node = msg.dst
        vpn = msg.payload["vpn"]
        downgrade = msg.payload["downgrade"]
        state = proc.node_state(node)
        with engine.span(
            "protocol.invalidate", node=node, vpn=vpn, downgrade=downgrade,
            # the node whose access triggered this revocation — with the
            # victim (node), the (requester -> victim) ping-pong pair the
            # lens aggregates
            requester=msg.payload.get("requester", msg.src),
        ):
            yield params.invalidation_handler_cost
            # wait out any in-flight fault that is mid-install for this page
            # (its grant was FIFO-ordered ahead of this invalidation)
            while True:
                installing = [
                    f
                    for f in state.inflight.get(vpn, ())
                    if f.installing and not f.done.triggered
                ]
                if not installing:
                    break
                yield installing[0].done
            # apply synchronously: flush-decision, data grab and PTE change
            # happen with no intervening yield
            pte = state.page_table.lookup(vpn)
            dirty: Optional[bytes] = None
            if pte is not None and pte.state is PageState.EXCLUSIVE:
                frame = state.frames.peek(vpn)
                dirty = bytes(frame) if frame is not None else bytes(params.page_size)
            if pte is not None:
                pte.state = PageState.SHARED if downgrade else PageState.INVALID
        for invalidated in proc.hooks["invalidate"]:
            # with the node whose access triggered this revocation, so
            # false-sharing reports can name both parties
            invalidated(engine.now, node, vpn * params.page_size,
                        msg.payload.get("requester", msg.src))
        yield from proc.cluster.net.send(
            msg.make_reply(
                MsgType.PAGE_INVALIDATE_ACK, PAYLOAD_ACK_OK, page_data=dirty
            )
        )

    # ------------------------------------------------------------------
    # invariant checking (used by tests)
    # ------------------------------------------------------------------

    def check_page(
        self, vpn: int, entry: PageEntry, skip_inflight: bool = False
    ) -> None:
        """Assert every node's PTE agrees with *entry*.

        With *skip_inflight*, nodes that have an active in-flight fault for
        the page are excused — their PTE legitimately lags the directory
        while a grant is traveling.  That is the per-transition mode the
        coherence sanitizer uses; the quiescent teardown check passes
        False and holds every node to account."""
        for node, state in self.proc.iter_node_states():
            if skip_inflight:
                flist = state.inflight.get(vpn)
                if flist and any(not f.done.triggered for f in flist):
                    continue
            pte = state.page_table.lookup(vpn)
            pte_state = pte.state if pte is not None else PageState.INVALID
            if node in entry.owners:
                assert pte_state is not PageState.INVALID, (
                    f"page {vpn:#x}: node {node} is a directory owner "
                    f"but its PTE is invalid"
                )
                if entry.writer == node:
                    assert pte_state is PageState.EXCLUSIVE, (
                        f"page {vpn:#x}: node {node} is the writer but its "
                        f"PTE is {pte_state}"
                    )
                else:
                    assert pte_state is PageState.SHARED, (
                        f"page {vpn:#x}: node {node} is a reader owner but "
                        f"its PTE is {pte_state}"
                    )
                assert pte.data_version == entry.data_version, (
                    f"page {vpn:#x}: node {node} holds version "
                    f"{pte.data_version}, directory says {entry.data_version}"
                )
            else:
                assert pte_state is PageState.INVALID, (
                    f"page {vpn:#x}: node {node} has PTE {pte_state} "
                    f"but is not a directory owner"
                )

    def check_invariants(self) -> None:
        """Assert the directory and all page tables agree.  Only valid at
        quiescent points (no in-flight protocol operations); the coherence
        sanitizer applies the same per-page check at every ownership
        transition via :meth:`check_page`."""
        self.directory.check_invariants()
        for vpn, entry in self.directory.entries():
            if entry.busy:
                continue
            self.check_page(vpn, entry)
