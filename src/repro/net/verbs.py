"""Message dispatch: the receive side of the verb path.

Each node runs a :class:`Router`.  Incoming messages either complete a
pending RPC (when ``reply_to`` matches a registered request) or are handed
to the handler registered for their type; handlers are generator functions
and run as independent simulation processes, so a node can service many
protocol requests concurrently — just like the kernel message handlers in
the paper's messaging layer.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Generator, Optional

from repro.net.messages import TIMEOUT_CLASSES, Message, MsgType
from repro.sim import Engine, Event

Handler = Callable[[Message], Generator]

#: bound on the responder-side duplicate filter (msg_id -> cached reply);
#: old entries age out FIFO, which is safe because a requester only
#: retransmits while its bounded retry loop is still running
_SEEN_CAP = 4096


class RouterError(Exception):
    """A message arrived with no registered handler."""


class Router:
    """Per-node demultiplexer for incoming messages."""

    def __init__(self, engine: Engine, node_id: int):
        self.engine = engine
        self.node_id = node_id
        self._handlers: Dict[MsgType, Handler] = {}
        self._pending: Dict[int, Event] = {}
        self.dispatched = 0
        self.replies_matched = 0
        # reliable-transport state; dormant (None) unless fault injection
        # is enabled — see attach_chaos()
        self.chaos = None
        self.net = None
        #: request msg_id -> cached reply (None while the handler runs);
        #: the responder half of idempotent retransmission
        self._seen: "OrderedDict[int, Optional[Message]]" = OrderedDict()
        self.duplicates_dropped = 0
        #: per-type handler process names, built once — the dispatch hot
        #: path must not re-render an f-string per message
        self._proc_names: Dict[MsgType, str] = {}

    def attach_chaos(self, chaos, net) -> None:
        """Enable the responder side of the reliable transport: duplicate
        request suppression, REQUEST_ACKs for in-flight handlers, and
        idempotent re-sends of cached replies."""
        self.chaos = chaos
        self.net = net

    def register(self, msg_type: MsgType, handler: Handler) -> None:
        if msg_type in self._handlers:
            raise RouterError(
                f"node {self.node_id}: handler for {msg_type} already registered"
            )
        self._handlers[msg_type] = handler

    def expect_reply(self, msg_id: int) -> Event:
        event = self.engine.event(name="reply")
        self._pending[msg_id] = event
        return event

    def cancel_reply(self, msg_id: int) -> None:
        self._pending.pop(msg_id, None)

    def dispatch(self, msg: Message) -> None:
        if msg.reply_to is not None:
            waiter = self._pending.pop(msg.reply_to, None)
            if waiter is not None:
                self.replies_matched += 1
                waiter.succeed(msg)
                return
            # a reply whose requester gave up; fall through to a typed
            # handler if one exists, otherwise drop it silently
        elif self.chaos is not None:
            # responder-side duplicate suppression: a retransmitted request
            # (same msg_id) must not re-execute its handler
            if msg.msg_id in self._seen:
                self._on_duplicate(msg)
                return
            self._seen[msg.msg_id] = None
            while len(self._seen) > _SEEN_CAP:
                self._seen.popitem(last=False)
        handler = self._handlers.get(msg.msg_type)
        if handler is None:
            if msg.reply_to is not None:
                return  # orphaned reply
            # raise from a bare scheduled callback so the error escapes
            # engine.run() instead of failing a loopback sender's process
            error = RouterError(
                f"node {self.node_id}: no handler for {msg.msg_type} ({msg!r})"
            )

            def _raise() -> None:
                raise error

            self.engine._schedule_now(_raise)
            return
        self.dispatched += 1
        name = self._proc_names.get(msg.msg_type)
        if name is None:
            name = self._proc_names[msg.msg_type] = (
                f"n{self.node_id}.{msg.msg_type.value}"
            )
        proc = self.engine.process(handler(msg), name=name)
        tracer = self.engine.tracer
        if tracer is not None:
            # open the handler's root span, parented on the trace context the
            # sender stamped into the message header; it closes when the
            # handler process finishes (engine hook), so one fault renders as
            # a single tree across requester, home, and victim nodes
            tracer.adopt(
                proc, f"rx.{msg.msg_type.value}",
                trace_id=msg.trace_id, parent_id=msg.parent_span,
                node=self.node_id, src=msg.src,
            )
        proc.add_callback(self._check_handler)

    def _on_duplicate(self, msg: Message) -> None:
        """A retransmission of a request this node already accepted."""
        self.duplicates_dropped += 1
        cached = self._seen.get(msg.msg_id)
        if cached is not None:
            # the reply went out and may have been lost: re-send a clone
            # (fresh msg_id so the fabric treats it as a new wire message,
            # same reply_to so it correlates at the requester; requester-
            # side suppression drops it if the original also arrived)
            self.chaos.replies_resent.inc()
            resend = Message(
                msg_type=cached.msg_type,
                src=cached.src,
                dst=cached.dst,
                payload=cached.payload,
                page_data=cached.page_data,
                reply_to=cached.reply_to,
                # keep the original reply's trace context: the resend must
                # stay inside the tree the request started, or the Perfetto
                # flow arrows break mid-trace under chaos
                trace_id=cached.trace_id,
                parent_span=cached.parent_span,
            )
        elif msg.msg_type in TIMEOUT_CLASSES:
            # request-class message whose handler is still running (it may
            # legitimately block, e.g. a delegated futex wait): tell the
            # requester to keep waiting instead of declaring us dead
            self.chaos.request_acks.inc()
            resend = msg.make_reply(MsgType.REQUEST_ACK, {"ack_for": msg.msg_id})
            # same trace-continuity rule as resent replies: the ack answers
            # a request that already carries a trace context
            resend.trace_id = msg.trace_id
            resend.parent_span = msg.parent_span
        else:
            return  # duplicates of one-way messages vanish silently
        proc = self.net.post(resend)
        tracer = self.engine.tracer
        if tracer is not None and resend.trace_id is not None:
            # the posted send process starts with an empty span stack;
            # without adoption its net.send/net.wire spans would root a
            # fresh, disconnected trace
            tracer.adopt(
                proc, "net.resend",
                trace_id=resend.trace_id, parent_id=resend.parent_span,
                node=self.node_id, msg_type=resend.msg_type.value,
            )

    def note_reply_sent(self, reply: Message) -> None:
        """Cache an outbound reply against its request id (called by the
        fabric's send path when fault injection is on)."""
        if reply.msg_type is MsgType.REQUEST_ACK:
            return  # not the real reply; the handler is still running
        if reply.reply_to in self._seen:
            self._seen[reply.reply_to] = reply

    def _check_handler(self, proc) -> None:
        """Handler processes have no waiters; surface their failures
        instead of letting a protocol bug turn into a silent deadlock."""
        if proc.ok:
            return
        error = proc._exc

        def _raise() -> None:
            raise error

        self.engine._schedule_now(_raise)
