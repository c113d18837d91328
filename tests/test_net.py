"""Unit tests for the interconnect: verbs, RDMA paths, pools, ordering."""

import pytest

from repro.net import Message, MsgType, Network, rdma
from repro.net.verbs import RouterError
from repro.params import PAGE_TRANSFER_MODES, SimParams
from repro.sim import Engine


def make_net(num_nodes=2, **overrides):
    params = SimParams(**overrides) if overrides else SimParams()
    eng = Engine()
    return eng, Network(eng, num_nodes, params), params


def test_request_reply_roundtrip():
    eng, net, params = make_net()

    def handler(msg):
        yield from net.send(msg.make_reply(MsgType.PONG, {"echo": msg.payload["x"]}))

    net.router(1).register(MsgType.PING, handler)

    def client():
        reply = yield from net.request(
            Message(MsgType.PING, 0, 1, payload={"x": 7})
        )
        return reply.payload["echo"], eng.now

    echo, rtt = eng.run_process(client())
    assert echo == 7
    # at least two wire latencies plus processing
    assert rtt > 2 * params.wire_latency


def test_self_send_rejected():
    eng, net, _ = make_net()
    with pytest.raises(ValueError):
        net.connection(0, 0)


def test_same_node_request_is_loopback():
    """src == dst bypasses connections, pools, and the wire entirely:
    delivery is synchronous kernel-local dispatch at zero simulated cost."""
    eng, net, _ = make_net()

    def handler(msg):
        yield from net.send(msg.make_reply(MsgType.PONG, {"echo": 1}))

    net.router(0).register(MsgType.PING, handler)

    def client():
        start = eng.now
        reply = yield from net.request(Message(MsgType.PING, 0, 0))
        return reply.payload["echo"], eng.now - start

    echo, elapsed = eng.run_process(client())
    assert echo == 1
    assert elapsed == 0.0                 # no wire latency charged
    assert net.loopback_deliveries == 2   # request and reply
    assert net.messages_sent == 2
    # no pool slot was ever taken for the loopback traffic
    assert all(
        conn.send_pool.acquisitions == 0 for conn in net.connections.values()
    )


def test_unhandled_message_type_raises():
    eng, net, _ = make_net()
    net.post(Message(MsgType.PING, 0, 1))
    with pytest.raises(RouterError):
        eng.run()


def test_page_data_takes_longer_than_control():
    """A grant with 4KB payload must cost more wire time than a bare one."""

    def measure(attach_data: bool) -> float:
        eng, net, _ = make_net()

        def handler(msg):
            data = bytes(4096) if attach_data else None
            yield from net.send(
                msg.make_reply(MsgType.PAGE_GRANT, {"outcome": "grant"}, page_data=data)
            )

        net.router(1).register(MsgType.PAGE_REQUEST, handler)

        def client():
            yield from net.request(
                Message(MsgType.PAGE_REQUEST, 0, 1, payload={})
            )
            return eng.now

        return eng.run_process(client())

    assert measure(True) > measure(False) + 1.0


def test_transfer_mode_cost_ordering():
    """The paper's hybrid beats both verb-only and per-page registration."""

    def measure(mode: str) -> float:
        eng, net, _ = make_net(page_transfer_mode=mode)

        def handler(msg):
            yield from net.send(
                msg.make_reply(
                    MsgType.PAGE_GRANT, {"outcome": "grant"}, page_data=bytes(4096)
                )
            )

        net.router(1).register(MsgType.PAGE_REQUEST, handler)

        def client():
            yield from net.request(Message(MsgType.PAGE_REQUEST, 0, 1))
            return eng.now

        return eng.run_process(client())

    hybrid = measure("rdma_sink")
    verb = measure("verb")
    register = measure("rdma_register")
    assert hybrid < verb
    assert hybrid < register
    # dynamic region registration is the worst, as §III-E argues
    assert register > verb


def test_unknown_transfer_mode_rejected():
    # at construction, naming the modes: the in-flight stages look the
    # mode's cost model up in a table and have nobody to raise to
    with pytest.raises(ValueError, match="page_transfer_mode 'bogus'.*"
                       "'rdma_sink', 'verb', 'rdma_register'"):
        SimParams(page_transfer_mode="bogus")
    with pytest.raises(ValueError, match="page_transfer_mode"):
        SimParams().copy(page_transfer_mode="rdma")
    assert tuple(rdma.DATA_PATHS) == PAGE_TRANSFER_MODES


def test_in_order_delivery_despite_size_skew():
    """A big page message posted first must be dispatched before a small
    control message posted right after it (RC ordering)."""
    eng, net, _ = make_net()
    arrivals = []

    def grant_handler(msg):
        arrivals.append("big")
        yield eng.timeout(0)

    def ping_handler(msg):
        arrivals.append("small")
        yield eng.timeout(0)

    net.router(1).register(MsgType.PAGE_GRANT, grant_handler)
    net.router(1).register(MsgType.PING, ping_handler)

    def sender():
        yield from net.send(
            Message(MsgType.PAGE_GRANT, 0, 1, page_data=bytes(4096))
        )
        yield from net.send(Message(MsgType.PING, 0, 1))

    eng.run_process(sender())
    eng.run()
    assert arrivals == ["big", "small"]


def test_send_pool_backpressure():
    """With a single-chunk send pool, many simultaneous posts serialize and
    the pool records stalls."""
    eng, net, _ = make_net(send_pool_chunks=1)
    received = []

    def handler(msg):
        received.append(msg.payload["i"])
        yield eng.timeout(0)

    net.router(1).register(MsgType.PING, handler)

    def sender(i):
        yield from net.send(Message(MsgType.PING, 0, 1, payload={"i": i}))

    for i in range(5):
        eng.process(sender(i))
    eng.run()
    assert sorted(received) == list(range(5))
    conn = net.connection(0, 1)
    assert conn.send_pool.stalls > 0


def test_rdma_sink_backpressure():
    eng, net, _ = make_net(rdma_sink_chunks=1)
    received = []

    def handler(msg):
        received.append(msg.msg_id)
        yield eng.timeout(0)

    net.router(1).register(MsgType.PAGE_GRANT, handler)

    def sender():
        yield from net.send(
            Message(MsgType.PAGE_GRANT, 0, 1, page_data=bytes(4096))
        )

    for _ in range(4):
        eng.process(sender())
    eng.run()
    assert len(received) == 4
    assert net.connection(0, 1).rdma_sink.stalls > 0


def test_fair_sharing_on_link():
    """Two concurrent page sends from one node share the link: together
    they take roughly twice as long as one."""

    def measure(count: int) -> float:
        eng, net, _ = make_net(num_nodes=3)
        done = []

        def handler(msg):
            done.append(eng.now)
            yield eng.timeout(0)

        net.router(1).register(MsgType.PAGE_GRANT, handler)
        net.router(2).register(MsgType.PAGE_GRANT, handler)

        def sender(dst):
            # large enough that wire time dominates fixed overheads
            yield from net.send(
                Message(MsgType.PAGE_GRANT, 0, dst, page_data=bytes(1024 * 1024))
            )

        for i in range(count):
            eng.process(sender(1 + i % 2))
        eng.run()
        return max(done)

    one = measure(1)
    two = measure(2)
    assert two > one * 1.5


def test_message_repr_and_sizes():
    msg = Message(MsgType.PAGE_GRANT, 0, 1, page_data=bytes(4096))
    assert msg.data_bytes == 4096
    assert 0 < msg.control_bytes < 256
    assert "page_grant" in repr(msg)


def test_reply_correlation_ids():
    request = Message(MsgType.PING, 0, 1)
    reply = request.make_reply(MsgType.PONG)
    assert reply.reply_to == request.msg_id
    assert reply.src == 1 and reply.dst == 0


def test_pool_pressure_summary():
    eng, net, _ = make_net()
    stats = net.pool_pressure()
    assert stats == {"send": 0, "recv": 0, "sink": 0}
