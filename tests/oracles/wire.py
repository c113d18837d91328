"""The reference message carrier: the generator the fabric's ``_Flight``
stages were derived from, one ``yield`` at a time, run as its own process.
It was production's carrier for traced and fault-injected runs until the
flight learned to carry spans and verdicts; now it lives only here.  The
differential tests run both and require the same dispatch order, sequence
numbers, sim times, spans and fault-injection outcomes — the one known
difference being the process itself: with an engine hook installed (a
tracer, the sanitizer) its ``on_process_finished`` notification is one
more dispatch per message.
"""

from __future__ import annotations

from repro.net import fabric, rdma
from repro.obs.tracing import maybe_span


def receiver_data_cost(conn, nbytes):
    """Receiver-side handling of *nbytes* of page data (after the wire)."""
    with maybe_span(
        conn.engine.tracer, "net.rdma_recv", node=conn.dst,
        bytes=nbytes, mode=conn.params.page_transfer_mode,
    ):
        params = conn.params
        path = rdma.DATA_PATHS[params.page_transfer_mode]
        for delay in path.landing(params, nbytes):
            yield conn.engine.timeout(delay)
        if path.uses_sink:
            conn.rdma_sink.release()


def wire(net, conn, msg, wire_bytes, predecessor, delivered):
    """Transmission + receiver side, as an asynchronous process."""
    params = net.params
    with maybe_span(
        net.engine.tracer, "net.wire", node=conn.src,
        msg_type=msg.msg_type.value, dst=conn.dst, bytes=wire_bytes,
    ):
        # serialize onto the link under fair sharing with concurrent sends
        sent_at = net.engine.now
        yield net.nics[conn.src].tx.consume(wire_bytes, tag=msg.msg_type)
        for serialized in net.engine.hooks["wire"]:
            serialized(conn, wire_bytes, net.engine.now - sent_at)
        conn.send_pool.release()  # send completion reclaims the chunk
        yield net.engine.timeout(params.wire_latency)
        # receiver: consume a posted receive, reap the completion
        yield from conn.recv_pool.acquire()
        yield net.engine.timeout(params.verb_recv_overhead)
        if msg.page_data is not None:
            yield from receiver_data_cost(conn, msg.data_bytes)
        conn.recv_pool.release()  # re-post the receive work request
        chaos = net.chaos
        verdict = None if chaos is None else chaos.on_deliver(msg, wire_bytes)
        if verdict is not None and verdict.extra_delay_us > 0.0:
            # the delayed message keeps its slot in the delivery chain —
            # head-of-line blocking, as on a real RC queue pair
            yield net.engine.timeout(verdict.extra_delay_us)
        if verdict is None or not verdict.reorder:
            if predecessor is not None and not predecessor.triggered:
                yield predecessor  # enforce RC in-order delivery
        if verdict is None or not verdict.drop:
            net.routers[conn.dst].dispatch(msg)
            if verdict is not None and verdict.duplicate:
                net.routers[conn.dst].dispatch(msg)
        # a dropped message must still release its chain slot, or every
        # later delivery on this connection waits forever
        delivered.succeed()


def wire_process(net, conn, msg, wire_bytes, predecessor):
    """Carry *msg* with :func:`wire` as its own process (same signature
    and return value as constructing a ``_Flight``: the message's
    ``delivered`` event)."""
    delivered = net.engine.event(name="delivered")
    wire_proc = net.engine.process(
        wire(net, conn, msg, wire_bytes, predecessor, delivered), name="wire",
    )
    tracer = net.engine.tracer
    if tracer is not None:
        tracer.carry(wire_proc)
    return delivered


def install(monkeypatch) -> None:
    """Make every fabric carry its messages with the generator from here
    on.  ``_send_impl`` looks ``_Flight`` up by name when it posts."""
    monkeypatch.setattr(fabric, "_Flight", wire_process)
