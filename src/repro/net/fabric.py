"""The rack fabric: NICs, RC connections, and the send path.

:class:`Network` owns one :class:`NodeNIC` and one :class:`Router` per node
and one directional :class:`Connection` per ordered node pair, established
at "boot" exactly as the paper describes ("at system boot-up time, nodes
read in a configuration to establish a communication channel for each node
pair under the InfiniBand Reliable Connection mode", §III-E).

A message send charges: send-pool chunk acquisition (stalling under
exhaustion), verb posting cost, data-path preparation when page data is
attached, fair-share link bandwidth for the full wire size, propagation
latency, receive-pool chunk + completion handling at the receiver, and the
data-path landing cost.  Delivery hands the message to the receiver's
router.  Senders return as soon as the send is posted — completions are
asynchronous, as on a real HCA: everything after the post belongs to the
message's :class:`_Flight`, on every run.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from repro.core.errors import NodeFailedError
from repro.net import rdma
from repro.net.buffers import BufferPool, RdmaSink
from repro.net.messages import Message, MsgType, recycle_message
from repro.net.retry import backoff_delay, timeout_base_us
from repro.net.verbs import Router
from repro.obs.tracing import maybe_span
from repro.params import SimParams
from repro.sim import Engine, Event, FairShareResource


class NodeNIC:
    """Per-node host channel adaptor: fair-share transmit bandwidth."""

    def __init__(self, engine: Engine, node_id: int, params: SimParams):
        self.node_id = node_id
        self.tx = FairShareResource(
            engine, params.link_bandwidth, name=f"n{node_id}.tx"
        )


class Connection:
    """A directional RC channel with its pools (send pool at the source,
    receive pool and RDMA sink at the destination)."""

    def __init__(self, engine: Engine, src: int, dst: int, params: SimParams):
        self.engine = engine
        self.src = src
        self.dst = dst
        self.params = params
        tag = f"c{src}->{dst}"
        self.send_pool = BufferPool(
            engine, params.send_pool_chunks, params.pool_chunk_bytes, f"{tag}.send"
        )
        self.recv_pool = BufferPool(
            engine, params.recv_pool_chunks, params.pool_chunk_bytes, f"{tag}.recv"
        )
        self.rdma_sink = RdmaSink(
            engine, params.rdma_sink_chunks, params.rdma_sink_slot_bytes, f"{tag}.sink"
        )
        self.messages = 0
        self.bytes_on_wire = 0
        #: tail of the in-order delivery chain: RC connections deliver in
        #: post order, so each message waits for its predecessor's dispatch
        self._delivery_tail: Optional[Event] = None


class _Flight(Event):
    """One posted message on its way to the receiver's router: the
    transmission and receiver side of the send path as a chain of stages.

    Every stage is a plain method the engine calls: a delay is one
    ``_schedule_at`` entry, a wake-up sits in the awaited event's own
    callback list.  The stages were derived one ``yield`` at a time from
    the generator kept in ``tests/oracles/wire.py``; ``tests/test_flight.py``
    requires the two to agree on dispatch order, sim times, spans and
    fault-injection outcomes.  As an :class:`Event` the flight *is* its
    message's ``delivered`` marker in the connection's in-order chain, and
    on a traced run the key of the stack its spans nest on.  Knobs are
    attribute tests inside the stage that needs them."""

    __slots__ = ("net", "conn", "msg", "wire_bytes", "predecessor", "sent_at",
                 "landing", "wire_span", "recv_span", "verdict")

    def __init__(self, net: "Network", conn: Connection, msg: Message,
                 wire_bytes: int, predecessor: Optional[Event]):
        Event.__init__(self, net.engine, "delivered")
        self.net = net
        self.conn = conn
        self.msg = msg
        self.wire_bytes = wire_bytes
        self.predecessor = predecessor
        #: what fault injection decided about this delivery, if anything
        self.verdict = None
        tracer = self.engine.tracer
        if tracer is not None:
            tracer.carry(self)  # our spans parent under the poster's
        self.engine._schedule_now(self._transmit)

    def _after(self, delay: float, stage) -> None:
        engine = self.engine
        engine._schedule_at(engine.now + delay, stage)

    def _transmit(self) -> None:
        engine = self.engine
        if engine.tracer is not None:
            conn = self.conn
            self.wire_span = engine.tracer.open_span(
                self, "net.wire", conn.src, -1,
                {"msg_type": self.msg.msg_type.value, "dst": conn.dst,
                 "bytes": self.wire_bytes},
            )
        # serialize onto the link under fair sharing with concurrent sends
        self.sent_at = engine.now
        sent = self.net.nics[self.conn.src].tx.consume(
            self.wire_bytes, tag=self.msg.msg_type
        )
        if sent._done:
            self._sent(sent)
        else:
            sent._callbacks.append(self._sent)

    def _sent(self, _sent: Event) -> None:
        conn = self.conn
        on_wire = self.net._on_wire
        if on_wire:
            waited = self.engine.now - self.sent_at
            for serialized in on_wire:
                serialized(conn, self.wire_bytes, waited)
        conn.send_pool.release()  # send completion reclaims the chunk
        self._after(self.net.params.wire_latency, self._arrive)

    def _arrive(self) -> None:
        # receiver: consume a posted receive (stalling while none is free)
        grant = self.conn.recv_pool.take()
        if grant._done:
            self._reap()
        else:
            grant._callbacks.append(self._reap)

    def _reap(self, stalled_on: Optional[Event] = None) -> None:
        if stalled_on is not None:
            self.conn.recv_pool.resumed()
        self._after(self.net.params.verb_recv_overhead, self._reaped)

    def _reaped(self) -> None:
        msg = self.msg
        if msg.page_data is None:
            self._landed()
            return
        params = self.net.params
        tracer = self.engine.tracer
        if tracer is not None:
            self.recv_span = tracer.open_span(
                self, "net.rdma_recv", self.conn.dst, -1,
                {"bytes": msg.data_bytes, "mode": params.page_transfer_mode},
            )
        self.landing = iter(self.net.data_path.landing(params, msg.data_bytes))
        self._land()

    def _land(self) -> None:
        # one entry per landing delay of the page-transfer mode, in order
        delay = next(self.landing, None)
        if delay is not None:
            self._after(delay, self._land)
            return
        if self.net.data_path.uses_sink:
            self.conn.rdma_sink.release()  # page copied out: recycle the slot
        tracer = self.engine.tracer
        if tracer is not None:
            tracer.close_span(self, self.recv_span)
        self._landed()

    def _landed(self) -> None:
        self.conn.recv_pool.release()  # re-post the receive work request
        chaos = self.net.chaos
        if chaos is not None:
            # the controller's zero-length chaos.* spans nest under net.wire:
            # the flight, not a process, is what executes while it decides
            engine = self.engine
            engine.current_process = self
            try:
                verdict = self.verdict = chaos.on_deliver(self.msg, self.wire_bytes)
            finally:
                engine.current_process = None
            if verdict is not None and verdict.extra_delay_us > 0.0:
                # the delayed message keeps its slot in the delivery chain —
                # head-of-line blocking, as on a real RC queue pair
                self._after(verdict.extra_delay_us, self._deliver)
                return
        self._deliver()

    def _deliver(self, _predecessor: Optional[Event] = None) -> None:
        verdict = self.verdict
        predecessor = self.predecessor
        if predecessor is not None:
            # drop the link either way, or the chain would keep every
            # flight the connection ever carried alive
            self.predecessor = None
            if not predecessor._done and (verdict is None or not verdict.reorder):
                # enforce RC in-order delivery: come back when it is through
                predecessor._callbacks.append(self._deliver)
                return
        router = self.net.routers[self.conn.dst]
        if verdict is None or not verdict.drop:
            router.dispatch(self.msg)
            if verdict is not None and verdict.duplicate:
                router.dispatch(self.msg)
        # a dropped message still releases its slot in the chain, or every
        # later delivery on this connection waits forever
        self.succeed()
        tracer = self.engine.tracer
        if tracer is not None:
            tracer.close_span(self, self.wire_span)
            tracer.on_process_finished(self)  # the carried marker goes too


class Network:
    """All fabric state plus the public send/request API."""

    def __init__(
        self, engine: Engine, num_nodes: int, params: SimParams, chaos=None,
    ):
        if num_nodes < 1:
            raise ValueError(f"need at least one node, got {num_nodes}")
        self.engine = engine
        self.num_nodes = num_nodes
        self.params = params
        #: the page-transfer mode's cost model, looked up once
        self.data_path = rdma.DATA_PATHS[params.page_transfer_mode]
        #: the ChaosController when fault injection is on, else None; every
        #: hook below is gated on one `is None` test so the chaos-off send
        #: path stays bit-identical
        self.chaos = chaos
        #: the engine's ``wire`` probe, held: the flight measures a link's
        #: service time per message, and only when somebody listens
        self._on_wire = engine.hooks["wire"]
        self.nics: List[NodeNIC] = [
            NodeNIC(engine, n, params) for n in range(num_nodes)
        ]
        self.routers: List[Router] = [Router(engine, n) for n in range(num_nodes)]
        if chaos is not None:
            for router in self.routers:
                router.attach_chaos(chaos, self)
        self.connections: Dict[Tuple[int, int], Connection] = {}
        for src in range(num_nodes):
            for dst in range(num_nodes):
                if src != dst:
                    self.connections[(src, dst)] = Connection(
                        engine, src, dst, params
                    )
        self.messages_sent = 0
        self.page_payloads = 0
        self.loopback_deliveries = 0
        #: message-freelist recycling is only sound when no other component
        #: retains message objects: the reliable transport (chaos runs)
        #: retransmits requests and caches replies, so it closes the gate
        self._recycle = chaos is None

    def connection(self, src: int, dst: int) -> Connection:
        try:
            return self.connections[(src, dst)]
        except KeyError:
            raise ValueError(f"no connection {src}->{dst} (self-send or bad id)")

    def router(self, node_id: int) -> Router:
        return self.routers[node_id]

    # -- send paths ---------------------------------------------------------

    def send(self, msg: Message) -> Generator:
        """Generator: sender-side cost of posting *msg*; delivery continues
        asynchronously.  Yields until the send is posted."""
        tracer = self.engine.tracer
        if tracer is None:
            yield from self._send_impl(msg)
        else:
            with tracer.span(
                "net.send", node=msg.src,
                msg_type=msg.msg_type.value, dst=msg.dst,
            ):
                # stamp the trace context onto the wire header (no-op if the
                # caller already did); the receiver's router parents its
                # handler span on it
                tracer.inject(msg)
                for posted in self.engine.hooks["message"]:
                    posted(self.engine.now, msg)
                yield from self._send_impl(msg)

    def _send_impl(self, msg: Message) -> Generator:
        chaos = self.chaos
        if chaos is not None:
            if chaos.on_send(msg):
                return  # a fenced node sends nothing
            if msg.reply_to is not None:
                # remember outbound replies so a duplicate of the request
                # can be answered idempotently if this copy is lost
                self.routers[msg.src].note_reply_sent(msg)
        if msg.src == msg.dst:
            # kernel-local loopback: no NIC, pools, or wire involved —
            # the message is handed to this node's own router at zero
            # simulated cost, and (having never touched a lossy link)
            # delivery is reliable even under fault injection
            self.messages_sent += 1
            self.loopback_deliveries += 1
            self.routers[msg.dst].dispatch(msg)
            return
        conn = self.connection(msg.src, msg.dst)
        params = self.params
        self.messages_sent += 1
        conn.messages += 1

        yield from conn.send_pool.acquire()
        yield params.verb_send_overhead
        if msg.page_data is not None:
            self.page_payloads += 1
            yield from rdma.sender_data_cost(conn, msg.data_bytes)
        wire_bytes = msg.control_bytes + msg.data_bytes
        conn.bytes_on_wire += wire_bytes
        # claim a position in the connection's in-order delivery chain at
        # post time (RC semantics: receive order == post order)
        conn._delivery_tail = _Flight(
            self, conn, msg, wire_bytes, conn._delivery_tail
        )

    def post(self, msg: Message):
        """Fire-and-forget send, run as its own process."""
        return self.engine.process(self.send(msg), name="send")

    def request(self, msg: Message) -> Generator:
        """Generator: send *msg* and wait for the correlated reply message.
        Returns the reply.

        With fault injection enabled the request rides the reliable
        transport (:meth:`_request_with_retry`); otherwise it is the plain
        single-shot path, kept verbatim so chaos-off sim time is
        bit-identical.  On that path the request object is recycled once
        the reply arrives: by then the responder's handler has posted the
        reply (its final use of the request) and the flight has
        delivered, so the requester holds the only live reference."""
        if self.chaos is not None:
            reply = yield from self._request_with_retry(msg)
            return reply
        tracer = self.engine.tracer
        if tracer is None:
            reply_event = self.routers[msg.src].expect_reply(msg.msg_id)
            yield from self._send_impl(msg)
            reply = yield reply_event
            recycle_message(msg)  # chaos is None here: the gate is open
            return reply
        with maybe_span(
            tracer, "net.request", node=msg.src,
            msg_type=msg.msg_type.value, dst=msg.dst,
        ):
            reply_event = self.routers[msg.src].expect_reply(msg.msg_id)
            yield from self.send(msg)
            reply = yield reply_event
        recycle_message(msg)
        return reply

    def recycle(self, msg: Message) -> None:
        """Recycle a reply the caller has fully consumed.  No-op whenever
        recycling is unsound (fault injection on), so protocol code can
        call it unconditionally."""
        if self._recycle:
            recycle_message(msg)

    def _request_with_retry(self, msg: Message) -> Generator:
        """The reliable request path: retransmit on reply timeout with
        capped exponential backoff, bounded *consecutive silent* timeouts.

        Retransmissions reuse the message object, so the sequence number
        (``msg_id``) is stable and the responder's duplicate filter can
        suppress re-execution.  A ``REQUEST_ACK`` from the responder means
        the handler is legitimately still running (a delegated futex wait
        may block indefinitely): it resets the attempt budget and re-arms
        the reply without retransmitting, so only true silence counts
        against ``retry_max_attempts``.  Exhaustion reports the destination
        unreachable to the failure detector and raises
        :class:`NodeFailedError`."""
        chaos = self.chaos
        engine = self.engine
        params = self.params
        router = self.routers[msg.src]
        base_us = timeout_base_us(params, msg.msg_type)
        with maybe_span(
            engine.tracer, "net.request", node=msg.src,
            msg_type=msg.msg_type.value, dst=msg.dst, reliable=True,
        ):
            reply_event = router.expect_reply(msg.msg_id)
            chaos.track_request(msg, reply_event)
            try:
                yield from self.send(msg)
                attempts = 0
                while True:
                    deadline = engine.timeout(
                        backoff_delay(base_us, attempts, params.retry_backoff_cap_us)
                    )
                    try:
                        yield engine.any_of(
                            (reply_event, deadline),
                            name=f"retry:{msg.msg_type.value}#{msg.msg_id}",
                        )
                    finally:
                        # a deadline that lost the race (or died with us)
                        # must not advance the clock at queue-drain time
                        deadline.cancel()
                    if reply_event.triggered:
                        reply = reply_event.value  # re-raises detector aborts
                        while reply.msg_type is MsgType.REQUEST_ACK:
                            # responder alive, handler still running (e.g. a
                            # delegated futex wait that blocks until another
                            # thread wakes it).  Wait passively: probing on a
                            # timer would generate events forever if the
                            # handler never finishes, and post-ACK responder
                            # death is the failure detector's job — lease
                            # expiry fails the tracked reply event.
                            reply_event = router.expect_reply(msg.msg_id)
                            chaos.track_request(msg, reply_event)
                            reply = yield reply_event
                        return reply
                    attempts += 1
                    if attempts >= params.retry_max_attempts:
                        chaos.note_unreachable(msg.dst, msg)
                        raise NodeFailedError(
                            msg.dst,
                            f"no reply to {msg.msg_type.value}#{msg.msg_id} "
                            f"after {attempts} attempts",
                        )
                    chaos.note_retransmit(msg, attempts)
                    yield from self.send(msg)
            finally:
                router.cancel_reply(msg.msg_id)
                chaos.untrack_request(msg)

    # -- diagnostics ----------------------------------------------------------

    def pool_pressure(self) -> Dict[str, int]:
        """Total buffer-pool stalls across all connections (back-pressure
        events where a sender had to wait for a chunk)."""
        stats = {"send": 0, "recv": 0, "sink": 0}
        for conn in self.connections.values():
            stats["send"] += conn.send_pool.stalls
            stats["recv"] += conn.recv_pool.stalls
            stats["sink"] += conn.rdma_sink.stalls
        return stats
