"""Message taxonomy for the DeX protocol.

Messages are bimodal in size (§III-E): control messages are tens of bytes
and travel the verb path; page data is 4 KB and travels the RDMA path.  A
:class:`Message` optionally carries ``page_data``; the transport routes the
control part and the data part over the appropriate paths and delivers them
together.

Identity
--------
A :class:`Message` is a value: built once with ``Message(...)`` (or
:meth:`Message.make_reply`), never reused.  Its ``msg_id`` is 0 until the
:class:`repro.net.fabric.Network` stamps it from the cluster's own counter
the first time the message is sent or requested; a retransmission keeps
the id it was stamped with, so the responder's duplicate filter sees the
same request.  Nothing here holds state between runs: one cluster's ids
start at 1 whatever ran before it in the interpreter.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Optional


class MsgType(enum.Enum):
    # thread migration (§III-A)
    MIGRATE = "migrate"                    # origin -> remote: execution context
    MIGRATE_BACK = "migrate_back"          # remote -> origin: updated context
    MIGRATE_DONE = "migrate_done"

    # work delegation (§III-A)
    DELEGATE = "delegate"                  # remote thread -> its origin pair
    DELEGATE_REPLY = "delegate_reply"

    # memory consistency protocol (§III-B, §III-C); requests are routed to
    # the page's *home* (the origin under the origin directory backend)
    PAGE_REQUEST = "page_request"          # remote -> home: read or write
    PAGE_GRANT = "page_grant"              # home -> remote: ownership (+data)
    PAGE_RETRY = "page_retry"              # home -> remote: lost the race
    PAGE_INVALIDATE = "page_invalidate"    # home -> owner: revoke ownership
    PAGE_INVALIDATE_ACK = "page_invalidate_ack"
    PAGE_FORWARD = "page_forward"          # old writer -> requester: the page

    # home-routed directory layer (sharded backend)
    PAGE_HOME_LOOKUP = "page_home_lookup"  # remote -> origin: resolve vpn's home
    PAGE_HOME_INFO = "page_home_info"      # origin -> remote: the shard map

    # on-demand VMA synchronization (§III-D)
    VMA_QUERY = "vma_query"
    VMA_REPLY = "vma_reply"
    VMA_SHRINK = "vma_shrink"              # eager broadcast on munmap/downgrade

    # process lifecycle
    PROCESS_EXIT = "process_exit"

    # reliable transport & failure detection (see repro.chaos); only ever
    # on the wire when fault injection is enabled
    REQUEST_ACK = "request_ack"            # responder -> requester: duplicate
    #                                        request seen, handler still running
    LEASE_RENEW = "lease_renew"            # remote worker -> origin keepalive

    # microbenchmark / test traffic
    PING = "ping"
    PONG = "pong"


#: approximate wire size of the control part of each message, in bytes —
#: "control messages are small, ranging up to tens of bytes" (§III-E)
CONTROL_SIZES: Dict[MsgType, int] = {
    MsgType.MIGRATE: 192,          # pt_regs + identifiers
    MsgType.MIGRATE_BACK: 192,
    MsgType.MIGRATE_DONE: 24,
    MsgType.DELEGATE: 64,
    MsgType.DELEGATE_REPLY: 32,
    MsgType.PAGE_REQUEST: 40,
    MsgType.PAGE_GRANT: 48,
    MsgType.PAGE_RETRY: 24,
    MsgType.PAGE_INVALIDATE: 32,
    MsgType.PAGE_INVALIDATE_ACK: 24,
    MsgType.PAGE_FORWARD: 32,
    MsgType.PAGE_HOME_LOOKUP: 24,
    # 24 B of header plus the shard map at one byte per shard, in at least
    # 16 B: 40 B up to 16 shards (the default 11, smallest prime above 8
    # nodes), more beyond — each reply is sized by Message.control_bytes
    MsgType.PAGE_HOME_INFO: 40,
    MsgType.VMA_QUERY: 32,
    MsgType.VMA_REPLY: 64,
    MsgType.VMA_SHRINK: 48,
    MsgType.PROCESS_EXIT: 16,
    MsgType.REQUEST_ACK: 16,
    MsgType.LEASE_RENEW: 24,
    MsgType.PING: 16,
    MsgType.PONG: 16,
}
#: keyed by ``_value_``: a str's hash is cached, ``Enum.__hash__`` is Python;
#: 0 marks the one size read off the payload (the shard map's length)
_CONTROL_SIZE_OF = {kind._value_: size for kind, size in CONTROL_SIZES.items()}
_CONTROL_SIZE_OF[MsgType.PAGE_HOME_INFO._value_] = 0


#: retry-timeout class of every request-class message (one that a sender
#: awaits a correlated reply for).  The class picks the reply timeout the
#: retransmission loop starts from (SimParams.retry_timeout_<class>_us):
#: "ctl" for small control round-trips, "data" for replies that may carry a
#: page or legitimately wait out an in-flight install, "heavy" for
#: migration/delegation round-trips whose handlers do real work.  The
#: retry-discipline lint rule requires every request-class MsgType to
#: appear here.
TIMEOUT_CLASSES: Dict[MsgType, str] = {
    MsgType.MIGRATE: "heavy",
    MsgType.MIGRATE_BACK: "heavy",
    MsgType.DELEGATE: "heavy",
    MsgType.PAGE_REQUEST: "data",
    MsgType.PAGE_INVALIDATE: "data",
    MsgType.PAGE_HOME_LOOKUP: "ctl",
    MsgType.VMA_QUERY: "ctl",
    MsgType.VMA_SHRINK: "ctl",
    MsgType.PING: "ctl",
}


@dataclass(slots=True)
class Message:
    """One unit of inter-node communication.

    ``payload`` is a plain dict of protocol fields.  ``page_data``, when
    present, is a full page of real bytes and is shipped over the
    large-transfer path.  ``reply_to`` correlates RPC responses with the
    pending request at the sender.
    """

    msg_type: MsgType
    src: int
    dst: int
    payload: Dict[str, Any] = field(default_factory=dict)
    page_data: Optional[bytes] = None
    #: 0 until the fabric stamps it at first send (see module docstring)
    msg_id: int = 0
    reply_to: Optional[int] = None
    #: causal-trace context (repro.obs), stamped by the fabric at send time
    #: when tracing is on.  These are the ONLY sanctioned carriers of trace
    #: ids between nodes (the span-discipline lint enforces it); they model
    #: reserved header bytes, so they don't count toward CONTROL_SIZES.
    trace_id: Optional[int] = None
    parent_span: Optional[int] = None

    @property
    def control_bytes(self) -> int:
        return (_CONTROL_SIZE_OF.get(self.msg_type._value_, 48)
                or 24 + max(16, len(self.payload["shard_map"])))

    @property
    def data_bytes(self) -> int:
        return len(self.page_data) if self.page_data is not None else 0

    def make_reply(
        self,
        msg_type: MsgType,
        payload: Optional[Dict[str, Any]] = None,
        page_data: Optional[bytes] = None,
    ) -> "Message":
        return Message(
            msg_type,
            self.dst,
            self.src,
            payload if payload is not None else {},
            page_data,
            reply_to=self.msg_id,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        data = f" +{self.data_bytes}B" if self.page_data is not None else ""
        return (
            f"<Msg {self.msg_type.value} {self.src}->{self.dst} "
            f"#{self.msg_id}{data}>"
        )


def forward_key(request_id: int) -> int:
    """Where a page forwarded for request *request_id* is expected at the
    requester: a second answer to that request, kept apart from its own
    reply (msg_ids are positive)."""
    return -request_id


#: shared payloads for fixed single-field replies; receivers treat
#: payloads as read-only (there is no payload mutation in the tree), so
#: one dict per outcome saves an allocation on every retry/ack
PAYLOAD_RETRY: Dict[str, Any] = {"outcome": "retry"}
PAYLOAD_ACK_OK: Dict[str, Any] = {"ok": True}
#: an invalidation ack whose dirty page went to the requester, not the home
PAYLOAD_FORWARDED: Dict[str, Any] = {"ok": True, "forwarded": True}
