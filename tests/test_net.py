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


@pytest.mark.parametrize("shards, size", [(11, 40), (31, 55)])
def test_a_home_info_reply_is_charged_for_its_shard_map(shards, size):
    """24 B of header plus one byte a shard, in at least 16 B."""
    reply = Message(MsgType.PAGE_HOME_INFO, 0, 1,
                    {"shard_map": tuple(range(shards))})
    assert reply.control_bytes == size


def test_reply_correlation_ids():
    request = Message(MsgType.PING, 0, 1)
    reply = request.make_reply(MsgType.PONG)
    assert reply.reply_to == request.msg_id
    assert reply.src == 1 and reply.dst == 0


def test_pool_pressure_summary():
    eng, net, _ = make_net()
    stats = net.pool_pressure()
    assert stats == {"send": 0, "recv": 0, "sink": 0}


# -- the reliable transport's Router halves (fault injection on) ------------


def make_reliable_net(monkeypatch):
    """Two nodes with fault injection on (an empty scenario), every
    fire-and-forget post captured instead of sent, and a ``PING`` handler
    on node 1 that never replies."""
    from repro.chaos import ChaosController, ChaosScenario

    params = SimParams()
    eng = Engine()
    net = Network(eng, 2, params,
                  chaos=ChaosController(eng, params, ChaosScenario()))
    posted = []
    monkeypatch.setattr(net, "post", posted.append)

    def still_running(msg):
        yield eng.event()  # never triggered: it has not replied yet

    net.router(1).register(MsgType.PING, still_running)
    return net, posted


def test_a_reply_right_after_a_request_ack_reaches_its_waiter(monkeypatch):
    """A duplicate of a request whose handler still runs draws a
    REQUEST_ACK.  The ACK and the real reply reach the requester in the
    same instant: the reply must still find its waiter, because an ACK
    answers no waiter."""
    net, posted = make_reliable_net(monkeypatch)
    request = Message(MsgType.PING, 0, 1)
    net.stamp(request)
    waiter = net.router(0).expect_reply(request.msg_id)
    net.router(1).dispatch(request)
    net.router(1).dispatch(request)  # handler still running: an ACK
    (ack,) = posted
    assert ack.msg_type is MsgType.REQUEST_ACK
    reply = request.make_reply(MsgType.PONG)
    net.router(0).dispatch(ack)
    net.router(0).dispatch(reply)
    assert waiter.triggered and waiter.value is reply
    assert net.router(1).dispatched == 1
    assert net.router(0).take_ack(request.msg_id)
    assert not net.router(0).take_ack(request.msg_id)


def test_the_duplicate_filter_never_evicts_a_running_handler(monkeypatch):
    """Past the filter's cap, settled entries age out FIFO, but a request
    whose handler has not replied stays: a probe of it draws an ACK and
    never re-executes the handler (a second delegated futex_wait)."""
    from repro.net import verbs

    monkeypatch.setattr(verbs, "_SEEN_CAP", 2)
    net, posted = make_reliable_net(monkeypatch)
    responder = net.router(1)
    blocked = Message(MsgType.PING, 0, 1)
    net.stamp(blocked)
    responder.dispatch(blocked)
    settled = []
    for _ in range(4):
        request = Message(MsgType.PING, 0, 1)
        net.stamp(request)
        responder.dispatch(request)
        reply = request.make_reply(MsgType.PONG)
        responder.note_reply_sent(reply)
        settled.append((request, reply))
    assert responder.dispatched == 5
    responder.dispatch(blocked)  # the probe of the running handler
    newest, newest_reply = settled[-1]
    responder.dispatch(newest)  # cached: its reply is re-sent
    assert responder.dispatched == 5
    ack, resent = posted
    assert ack.msg_type is MsgType.REQUEST_ACK
    assert ack.payload["ack_for"] == blocked.msg_id
    assert resent.reply_to == newest.msg_id
    assert resent.msg_type is MsgType.PONG
    oldest, _ = settled[0]
    responder.dispatch(oldest)  # aged out: the filter no longer knows it
    assert responder.dispatched == 6


def test_backoff_delay_is_capped_at_any_attempt():
    """The probe loop's attempt count is unbounded; 2.0 ** 1024 would
    overflow a float."""
    from repro.net.retry import backoff_delay

    assert backoff_delay(400.0, 0, 5000.0) == 400.0
    assert backoff_delay(400.0, 3, 5000.0) == 3200.0
    assert backoff_delay(2500, 5000, 5000) == 5000
