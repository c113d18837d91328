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
  a revoked exclusive owner flushes its dirty page back with the ack —
  or, where the directory's :attr:`~repro.core.directory.
  CoherenceDirectory.forwards_handoffs` says so (the sharded backend),
  the requester is not the home and no write request was turned away
  while the page's last operation was in flight, sends it straight to the
  requester in a ``PAGE_FORWARD`` and acks without data, and the home
  grants without data (a 3-hop grant).
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
metadata (and its downgrade flush target / read grant source) lives at a
per-page home node, requests are home-routed — resolved from the node's copy of the
shard map, learned whole by its first home lookup, with a redirect when
the copy is stale — and the origin stops being a serialization point for
the whole address space.

Timing-race note: a grant reply and a subsequent invalidation for the same
page travel the same in-order RC connection (both originate at the page's
home), so the grant is always *dispatched* first; the requester marks its
in-flight fault ``installing`` synchronously upon receiving the grant, and
the invalidation handler waits for installing faults to finish before
revoking.  This mirrors the careful PTE-update ordering §III-C describes
for the real kernel implementation.  A forwarded page travels another
connection (old writer -> requester), so it may land before or after the
grant: the requester registers the rendezvous before it sends its request
(:meth:`~repro.net.verbs.Router.expect_forward`), and on a data-less
grant it marks the fault ``installing`` first and then waits for the page
— an invalidation queued behind the grant waits for that install, page
wait included.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, List, Optional, Tuple

from repro.core.directory import PageEntry, make_directory
from repro.core.errors import NodeFailedError, ProtocolError
from repro.memory.page_table import EXCLUSIVE, STATE_OF_VALUE, PageState
from repro.net.messages import (
    PAYLOAD_ACK_OK,
    PAYLOAD_FORWARDED,
    PAYLOAD_REDIRECT,
    PAYLOAD_RETRY,
    Message,
    MsgType,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.fault import InFlightFault
    from repro.core.process import DexProcess
    from repro.sim import Event

#: grant outcomes, shipped in reply payloads
_RETRY = "retry"
_GRANT = "grant"
_REDIRECT = "redirect"
#: the process was failed by fail-stop recovery (chaos runs only)
_FAILED = "failed"
#: a grant's data slot when the old writer sent the page to the requester
_FORWARDED = "forwarded"


class ConsistencyProtocol:
    """One instance per distributed process; directory placement is
    delegated to the configured :class:`CoherenceDirectory` backend."""

    def __init__(self, proc: "DexProcess"):
        self.proc = proc
        self.directory = make_directory(proc)
        #: whether an exclusive handoff between two nodes other than the
        #: home goes writer-to-writer.  Never under fault injection:
        #: fail-stop recovery restores a dead writer's page from the
        #: home's last flush, so there every handoff leaves one there
        self.forwards = (
            self.directory.forwards_handoffs and proc.cluster.chaos is None
        )

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
        net = proc.cluster.net
        retries = 0
        while True:
            pte = page_table.ensure(vpn)
            if pte.writable if write else pte.readable:
                # resolved while we backed off (e.g. another fault on this
                # node won an exclusive grant that covers us); requesting
                # again could downgrade our own node's ownership
                return retries
            local = self.directory.hosts(node, vpn)
            forward = None
            if local:
                outcome = yield from self.handle_request(
                    node, vpn, write, pte.data_version
                )
            else:
                target = yield from self._resolve_home(node, vpn)
                request = Message(
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
                if write and self.forwards:
                    # the old writer may send the page here, even ahead of
                    # the grant: expect it before asking
                    forward = net.routers[node].expect_forward(net.stamp(request))
                reply = None
                try:
                    reply = yield from net.request(request)
                finally:
                    if forward is not None and (
                        reply is None or not reply.payload.get("forwarded")
                    ):
                        net.routers[node].cancel_forward(request.msg_id)
                        forward = None
                if reply.payload["outcome"] == _REDIRECT:
                    # stale shard map: the node we asked no longer hosts
                    # this page's shard — drop the copy and learn it again
                    proc.stats.hint_stale += 1
                    self.directory.forget_map(node)
                    for redirected in proc.hooks["redirect"]:
                        redirected(vpn, node, target)
                    continue
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
                if forward is not None:
                    data = yield from self._await_forward(
                        node, vpn, request.msg_id, forward
                    )
                frames = proc.node_state(node).frames
                if data is not None:
                    if vpn not in frames:
                        yield params.page_alloc_cost
                    frames.install(vpn, data)
            yield params.pte_update_cost
            # final PTE update is synchronous after the last yield: the
            # caller's data access runs in the same engine step
            pte = page_table.ensure(vpn)
            pte.state = STATE_OF_VALUE[state_name]
            pte.data_version = version
            if pte.state is EXCLUSIVE:
                # other nodes may still hold this version's object: the
                # copy-on-write the next write would make happens here
                proc.node_state(node).frames.own(vpn)
            return retries

    def _await_forward(
        self, node: int, vpn: int, request_id: int, forward: "Event"
    ) -> Generator:
        """The page the old writer forwarded for *node*'s granted request
        *request_id*: it may have landed already, or still be on its way."""
        if forward.triggered:
            return forward.value.page_data
        try:
            with self.proc.cluster.engine.span(
                "protocol.await_forward", node=node, vpn=vpn
            ):
                msg = yield forward
        finally:
            self.proc.cluster.net.routers[node].cancel_forward(request_id)
        return msg.page_data

    def _resolve_home(self, node: int, vpn: int) -> Generator:
        """Which node should *node* send its ownership request to?

        Origin backend: every node knows the directory lives at the
        origin.  Sharded backend: the origin owns the shard map; any other
        node resolves the home from its copy of the map and, while it has
        none, learns the whole map from the origin (the one hop its later
        faults skip)."""
        proc = self.proc
        directory = self.directory
        if directory.backend != "sharded" or node == proc.origin:
            return directory.home(vpn)
        known = directory.known_home(node, vpn)
        if known is not None:
            proc.stats.hint_hits += 1
            return known
        proc.stats.hint_misses += 1
        proc.stats.home_lookups += 1
        with proc.cluster.engine.span("protocol.resolve_home", node=node, vpn=vpn):
            reply = yield from proc.cluster.net.request(
                Message(
                    MsgType.PAGE_HOME_LOOKUP,
                    src=node,
                    dst=proc.origin,
                    payload={"pid": proc.pid},
                )
            )
        directory.learn_map(node, reply.payload["shard_map"])
        home = directory.known_home(node, vpn)
        for resolved in proc.hooks["home_lookup"]:
            resolved(vpn, node, home)
        return home

    # ------------------------------------------------------------------
    # home directory side
    # ------------------------------------------------------------------

    def handle_home_lookup_msg(self, msg: Message) -> Generator:
        """Origin message handler for :data:`MsgType.PAGE_HOME_LOOKUP`:
        answer with the whole origin-owned shard map, so the asking node
        resolves this page's home and every later one's without asking."""
        proc = self.proc
        yield proc.cluster.params.home_lookup_cost
        yield from proc.cluster.net.send(
            msg.make_reply(
                MsgType.PAGE_HOME_INFO,
                {"shard_map": self.directory.home_map()},
            )
        )

    def handle_page_request_msg(self, msg: Message) -> Generator:
        """Home-node message handler for :data:`MsgType.PAGE_REQUEST`: returns
        the generator that serves it (no frame of its own)."""
        payload = msg.payload
        vpn = payload["vpn"]
        if not self.directory.hosts(msg.dst, vpn):
            # mis-routed request (stale shard-map copy after a remap):
            # this node does not host the page's entry, so it cannot
            # serialize the operation — bounce the requester back to the
            # resolution path instead of guessing
            return self.proc.cluster.net.send(
                msg.make_reply(MsgType.PAGE_REDIRECT, PAYLOAD_REDIRECT)
            )
        return self.handle_request(
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
        requester is the home itself; ``"forwarded"`` when the old writer
        sent the page to the requester directly).

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
            # materialize the origin's implicit exclusive ownership; its
            # slot stays what it is (an input page is not copied)
            proc.node_state(origin).page_table.set_state(
                vpn, PageState.EXCLUSIVE, data_version=0
            )
            proc.node_state(origin).frames.materialize(vpn)
        if entry.busy:
            # early-out: trylock on the per-page protocol state failed —
            # the requester lost the race and must back off and retry
            entry.busy_retries += 1
            if write:
                entry.write_refused = True
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
                            entry, requester, known_version,
                            0 if reply_to is None else reply_to.msg_id,
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
                    payload = {
                        "outcome": _GRANT,
                        "state": state_name,
                        "version": version,
                    }
                    if data is _FORWARDED:
                        payload["forwarded"] = True
                        data = None
                    yield from proc.cluster.net.send(
                        reply_to.make_reply(
                            MsgType.PAGE_GRANT, payload, page_data=data
                        )
                    )
        finally:
            entry.busy = False
            entry.contended, entry.write_refused = entry.write_refused, False
        return result

    def _grant_exclusive(
        self, entry: PageEntry, requester: int, known_version: int,
        request_id: int = 0,
    ) -> Generator:
        """*request_id* is a remote requester's request, which a page
        forwarded to it is keyed by (0: the home itself asks)."""
        home = self.directory.home(entry.vpn)
        writer = entry.writer
        if writer == requester:
            # the current writer re-requesting (a request that was already
            # in flight when its earlier grant landed): reaffirm — it holds
            # the only current copy, so there is nothing to move or bump
            return (_GRANT, PageState.EXCLUSIVE.value, entry.data_version, None)
        losers = sorted(entry.owners - {requester})
        # a remote writer forwards its page to a remote requester unless
        # the page is contended: another writer is queued already, so a
        # faster handoff only cuts each owner's run of writes short and
        # the page changes hands more often (GRP-initial@8 sharded: 2.3x
        # the handoffs and +11 % sim time when every handoff forwarded)
        forward = (
            request_id and self.forwards and writer is not None
            and writer != home and not entry.contended
        )
        forwarded = yield from self._revoke(
            entry, losers, downgrade=False, requester=requester,
            forward_id=request_id if forward else 0,
        )
        current = entry.data_version
        if forwarded:
            data = _FORWARDED
        else:
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
        """The current page contents, which the home holds whenever the
        page has no writer — so after every revocation that did not
        forward the page to the requester: the home's snapshot, shipped by
        reference (every grant of one version ships the same object)."""
        proc = self.proc
        home_pte = proc.node_state(home).page_table.lookup(vpn)
        if home_pte is None or home_pte.data_version != version:
            raise ProtocolError(
                f"home copy of page {vpn:#x} is stale "
                f"(have {home_pte and home_pte.data_version}, need {version})"
            )
        return proc.node_state(home).frames.snapshot(vpn)

    def _revoke(
        self,
        entry: PageEntry,
        losers: List[int],
        downgrade: bool,
        requester: int = -1,
        forward_id: int = 0,
    ) -> Generator:
        """Revoke (or downgrade) ownership from *losers*, collecting acks.
        An exclusive loser flushes its dirty page, whose snapshot the home
        keeps by reference — unless *forward_id* names the requester's
        request, in which case the loser sends its page straight to the
        requester.  The generator returns whether it did; when it did not,
        the home holds current data.  *requester* is the node whose
        request triggered the revocation — shipped in the invalidation
        payload so owner-side traces can name both parties of the
        conflict.  Untraced, the returned generator is :meth:`_revoke_impl`
        itself."""
        if self.proc.cluster.engine.tracer is None:
            return self._revoke_impl(entry, losers, downgrade, requester, forward_id)
        return self._revoke_traced(entry, losers, downgrade, requester, forward_id)

    def _revoke_traced(
        self, entry: PageEntry, losers: List[int], downgrade: bool,
        requester: int, forward_id: int,
    ) -> Generator:
        with self.proc.cluster.engine.span(
            "protocol.revoke", node=self.directory.home(entry.vpn), vpn=entry.vpn,
            downgrade=downgrade, losers=len(losers),
        ):
            return (yield from self._revoke_impl(
                entry, losers, downgrade, requester, forward_id
            ))

    def _revoke_impl(
        self,
        entry: PageEntry,
        losers: List[int],
        downgrade: bool,
        requester: int = -1,
        forward_id: int = 0,
    ) -> Generator:
        proc = self.proc
        engine = proc.cluster.engine
        params = proc.cluster.params
        vpn = entry.vpn
        home = self.directory.home(vpn)
        remote_losers = [n for n in losers if n != home]
        forwarded = False
        if home in losers:
            proc.stats.home_revocations += 1
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
                payload = {
                    "pid": proc.pid,
                    "vpn": vpn,
                    "downgrade": downgrade,
                    "requester": requester,
                }
                if forward_id and node == entry.writer:
                    # send the dirty page to the requester, not back here
                    payload["request_id"] = forward_id
                msg = Message(
                    MsgType.PAGE_INVALIDATE, src=home, dst=node, payload=payload
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
            forwarded = any(ack.payload.get("forwarded") for ack in acks)
            flushes = [ack for ack in acks if ack.page_data is not None]
            if len(flushes) + forwarded > 1:
                raise ProtocolError(
                    f"page {vpn:#x}: {len(flushes) + forwarded} dirty copies; "
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
            return forwarded
        for node in losers:
            entry.owners.discard(node)
        return forwarded

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
                # the flush is this node's snapshot; the home keeps it
                dirty = state.frames.snapshot(vpn)
            if pte is not None:
                pte.state = PageState.SHARED if downgrade else PageState.INVALID
        for invalidated in proc.hooks["invalidate"]:
            # with the node whose access triggered this revocation, so
            # false-sharing reports can name both parties
            invalidated(engine.now, node, vpn * params.page_size,
                        msg.payload.get("requester", msg.src))
        ack = PAYLOAD_ACK_OK
        request_id = msg.payload.get("request_id")
        if dirty is not None and request_id is not None:
            # the requester, not the home, gets the page (sent ahead of
            # the ack, so the requester may hold it before its grant)
            proc.stats.pages_transferred += 1
            proc.stats.pages_forwarded += 1
            yield from proc.cluster.net.send(Message(
                MsgType.PAGE_FORWARD,
                src=node,
                dst=msg.payload["requester"],
                payload={"pid": proc.pid, "vpn": vpn, "request_id": request_id},
                page_data=dirty,
            ))
            dirty, ack = None, PAYLOAD_FORWARDED
        yield from proc.cluster.net.send(
            msg.make_reply(MsgType.PAGE_INVALIDATE_ACK, ack, page_data=dirty)
        )

    def handle_forward_msg(self, msg: Message) -> Generator:
        """Handler for :data:`MsgType.PAGE_FORWARD` at the requester: hand
        the page to the fault whose grant it belongs to (which may not
        have arrived yet)."""
        self.proc.cluster.net.routers[msg.dst].deliver_forward(msg)
        yield from ()

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
        False and holds every node to account.

        A page with no writer has current data at its home, whether or not
        the home is an owner: reads are served from there.  With a writer,
        the writer alone is current (a handoff may have forwarded the page
        past the home)."""
        if entry.writer is None:
            home = self.directory.home(vpn)
            home_pte = self.proc.node_state(home).page_table.lookup(vpn)
            assert home_pte is not None and \
                home_pte.data_version == entry.data_version, (
                    f"page {vpn:#x} has no writer but its home, node {home}, "
                    f"holds version {home_pte and home_pte.data_version}, "
                    f"not {entry.data_version}"
                )
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
                    frame = state.frames.peek(vpn)
                    assert frame is None or not any(
                        other.frames.peek(vpn) is frame
                        for n, other in self.proc.iter_node_states()
                        if n != node
                    ), (
                        f"page {vpn:#x}: node {node} is the writer but its "
                        f"frame is another node's slot too"
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
