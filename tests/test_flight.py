"""Differential tests of the message carrier.

Outside traced and fault-injected runs a posted message is carried by one
``_Flight`` whose stages the engine calls directly; the generator
``Network._wire`` it was derived from stays on as the carrier of those
runs and as the reference here (``tests/oracles/wire.py`` forces it).
Twin fabrics, one on each carrier, must be indistinguishable: same final
clock, same sequence numbers consumed, same number of dispatches, same
deliveries at the same times, same pool counters.
"""

import random

import pytest

from oracles import wire as wire_oracle
from repro import DexCluster
from repro.bench.runner import run_point
from repro.net import Message, MsgType, Network, fabric
from repro.params import PAGE_TRANSFER_MODES, SWITCHES, SimParams
from repro.sim import Engine, Event

PAGE = bytes(4096)
FLIGHT = fabric._Flight  # the oracle rebinds the module's name


class WireTotals:
    """Stands in for DexScope: what ``note_wire`` was told, in order."""

    def __init__(self):
        self.notes = []

    def note_wire(self, conn, wire_bytes, wait_us):
        self.notes.append((conn.src, conn.dst, wire_bytes, wait_us))


def run_fabric(scenario, num_nodes, scope, overrides):
    eng = Engine()
    net = Network(eng, num_nodes, SimParams(**overrides))
    if scope:
        net.scope = WireTotals()
    log = []
    scenario(eng, net, log)
    eng.run()
    used = [c for c in net.connections.values() if c.messages]
    return {
        "carriers": {type(c._delivery_tail) for c in used},
        "now": eng.now,
        "seq": eng._seq,
        "events": eng.events_dispatched,
        "deliveries": log,
        "sent": (net.messages_sent, net.page_payloads),
        "connections": {
            (c.src, c.dst): (c.messages, c.bytes_on_wire) for c in used
        },
        "pools": {
            pool.name: (pool.acquisitions, pool.stalls, pool.in_use)
            for c in used for pool in (c.send_pool, c.recv_pool, c.rdma_sink)
        },
        "scope": net.scope.notes if scope else None,
    }


def twins(scenario, monkeypatch, num_nodes=2, scope=False, **overrides):
    """*scenario* on a flight fabric and on a generator fabric; asserts
    they cannot be told apart and returns the flight's observation."""
    flight = run_fabric(scenario, num_nodes, scope, overrides)
    with monkeypatch.context() as patch:
        wire_oracle.install(patch)
        generator = run_fabric(scenario, num_nodes, scope, overrides)
    assert flight.pop("carriers") == {FLIGHT}
    assert generator.pop("carriers") == {Event}
    assert flight["deliveries"], "the scenario delivered nothing"
    assert flight == generator
    return flight


def recorder(eng, log):
    def handler(msg):
        log.append((eng.now, msg.msg_type.value, msg.payload.get("i")))
        yield eng.timeout(0)

    return handler


def back_to_back(*messages):
    """One sender posting *messages* (callables making them) in a row."""

    def scenario(eng, net, log):
        for msg_type in (MsgType.PING, MsgType.PAGE_GRANT):
            net.router(1).register(msg_type, recorder(eng, log))

        def sender():
            for i, make in enumerate(messages):
                yield from net.send(make(i))

        eng.process(sender())

    return scenario


def control(i):
    return Message(MsgType.PING, 0, 1, payload={"i": i})


def page(i):
    return Message(MsgType.PAGE_GRANT, 0, 1, payload={"i": i}, page_data=PAGE)


def test_a_control_message(monkeypatch):
    seen = twins(back_to_back(control), monkeypatch)
    assert [i for _, _, i in seen["deliveries"]] == [0]
    assert seen["sent"] == (1, 0)


@pytest.mark.parametrize("mode", PAGE_TRANSFER_MODES)
def test_a_page_message_in_each_transfer_mode(mode, monkeypatch):
    seen = twins(back_to_back(page), monkeypatch, page_transfer_mode=mode)
    assert seen["sent"] == (1, 1)
    # the sink slot is taken by the sender and recycled by the carrier
    assert seen["pools"]["c0->1.sink"] == ((mode == "rdma_sink"), 0, 0)


@pytest.mark.parametrize("mode", PAGE_TRANSFER_MODES)
def test_a_request_answered_with_a_page(mode, monkeypatch):
    def scenario(eng, net, log):
        def home(msg):
            yield from net.send(
                msg.make_reply(MsgType.PAGE_GRANT, {}, page_data=PAGE))

        net.router(1).register(MsgType.PAGE_REQUEST, home)

        def client():
            reply = yield from net.request(Message(MsgType.PAGE_REQUEST, 0, 1))
            log.append((eng.now, reply.msg_type.value, len(reply.page_data)))

        eng.process(client())

    twins(scenario, monkeypatch, page_transfer_mode=mode)


def test_an_exhausted_receive_pool(monkeypatch):
    seen = twins(back_to_back(page, page, control, page), monkeypatch,
                 recv_pool_chunks=1)
    acquisitions, stalls, in_use = seen["pools"]["c0->1.recv"]
    assert (acquisitions, in_use) == (4, 0) and stalls >= 2
    assert [i for _, _, i in seen["deliveries"]] == [0, 1, 2, 3]


def test_an_exhausted_rdma_sink(monkeypatch):
    def scenario(eng, net, log):
        net.router(1).register(MsgType.PAGE_GRANT, recorder(eng, log))
        for i in range(4):
            eng.process(net.send(page(i)))

    seen = twins(scenario, monkeypatch, rdma_sink_chunks=1)
    acquisitions, stalls, in_use = seen["pools"]["c0->1.sink"]
    # each waiting sender is woken by the carrier that recycles the slot
    assert (acquisitions, stalls, in_use) == (4, 3, 0)


def test_a_control_message_waits_for_the_page_before_it(monkeypatch):
    """RC in-order delivery: the control message lands first (no data to
    copy out) and waits on its predecessor's delivery."""
    seen = twins(back_to_back(page, control), monkeypatch)
    (t_page, kind_page, _), (t_ctl, kind_ctl, _) = seen["deliveries"]
    assert (kind_page, kind_ctl) == ("page_grant", "ping")
    assert t_ctl == t_page


def test_scope_is_told_the_same_queueing_delays(monkeypatch):
    def scenario(eng, net, log):
        net.router(1).register(MsgType.PAGE_GRANT, recorder(eng, log))
        net.router(1).register(MsgType.PING, recorder(eng, log))
        for i in range(3):  # three posts sharing the link
            eng.process(net.send(page(i)))
        eng.process(net.send(control(3)))

    seen = twins(scenario, monkeypatch, scope=True)
    assert len(seen["scope"]) == 4
    assert sum(n[2] for n in seen["scope"]) == seen["connections"][0, 1][1]
    assert any(n[3] > len(PAGE) / SimParams().link_bandwidth
               for n in seen["scope"])  # somebody really queued


@pytest.mark.parametrize("mode", PAGE_TRANSFER_MODES)
@pytest.mark.parametrize("seed", [0, 1, 20200708])
def test_random_traffic_on_tight_pools(seed, mode, monkeypatch):
    """Three nodes, every pool nearly dry, pages and control messages at
    random gaps, a third of the pings answered."""
    nodes = 3

    def scenario(eng, net, log):
        rng = random.Random(seed)

        def ping(msg):
            log.append((eng.now, "ping", msg.payload["i"]))
            if msg.payload["i"] % 3 == 0:
                yield from net.send(msg.make_reply(MsgType.PONG, msg.payload))
            else:
                yield eng.timeout(0)

        for node in range(nodes):
            router = net.router(node)
            router.register(MsgType.PING, ping)
            router.register(MsgType.PONG, recorder(eng, log))
            router.register(MsgType.PAGE_GRANT, recorder(eng, log))

        def sender(src, plan):
            for i, (gap, dst, with_page) in enumerate(plan):
                yield eng.timeout(gap)
                yield from net.send(Message(
                    MsgType.PAGE_GRANT if with_page else MsgType.PING,
                    src, dst, payload={"i": 100 * src + i},
                    page_data=PAGE if with_page else None))

        for src in range(nodes):
            plan = [(rng.choice([0.0, 0.0, 0.1, 0.7, 4.0]),
                     rng.choice([n for n in range(nodes) if n != src]),
                     rng.random() < 0.5) for _ in range(16)]
            eng.process(sender(src, plan))

    seen = twins(scenario, monkeypatch, num_nodes=nodes,
                 page_transfer_mode=mode, send_pool_chunks=2,
                 recv_pool_chunks=1, rdma_sink_chunks=1)
    assert sum(stalls for _, stalls, _ in seen["pools"].values()) > 0
    assert all(in_use == 0 for _, _, in_use in seen["pools"].values())


def test_a_delivered_flight_lets_go_of_its_predecessor():
    """The in-order chain must not keep every flight a connection ever
    carried alive through the tail."""
    eng = Engine()
    net = Network(eng, 2, SimParams())
    log = []
    back_to_back(page, control, page, control)(eng, net, log)
    eng.run()
    tail = net.connection(0, 1)._delivery_tail
    assert type(tail) is FLIGHT and tail.triggered
    assert tail.predecessor is None and len(log) == 4


@pytest.mark.parametrize("backend", ["origin", "sharded"])
def test_an_app_run_cannot_tell_the_carriers_apart(backend, built, monkeypatch):
    """Whole stack: KMN-initial on four nodes consumes the same sequence
    numbers and dispatches the same events on either carrier."""
    for switch in SWITCHES.values():  # no tracer, no chaos, no engine hooks
        monkeypatch.delenv(switch.env, raising=False)

    def run():
        result = run_point("KMN", "initial", 4, directory=backend,
                           n_points=10_000, max_iters=2)
        cluster = built[-1]
        assert result.correct
        return {
            "carriers": {type(c._delivery_tail)
                         for c in cluster.net.connections.values()
                         if c.messages},
            "elapsed_us": result.elapsed_us,
            "now": cluster.engine.now,
            "seq": cluster.engine._seq,
            "events": cluster.engine.events_dispatched,
            "faults": result.stats.total_faults,
            "retries": result.stats.fault_retries,
            "messages": cluster.net.messages_sent,
            "pools": cluster.net.pool_pressure(),
        }

    flight = run()
    wire_oracle.install(monkeypatch)
    generator = run()
    assert flight.pop("carriers") == {FLIGHT}
    assert generator.pop("carriers") == {Event}
    assert flight == generator


@pytest.mark.parametrize("knobs, carrier", [
    ({}, FLIGHT),
    ({"scope": "1"}, FLIGHT),     # note_wire is served by the flight
    ({"sanitize": "1"}, FLIGHT),  # and so are the engine's pool hooks
    ({"trace": "1"}, Event),      # span stacks are keyed by process
    ({"lens": "1"}, Event),       # the lens implies a tracer
    ({"chaos": "on"}, Event),     # the verdicts live in the generator
])
def test_only_traced_and_fault_injected_runs_keep_the_generator(
        knobs, carrier, monkeypatch):
    for switch in SWITCHES.values():
        monkeypatch.delenv(switch.env, raising=False)
    cluster = DexCluster(num_nodes=2, params=SimParams(**knobs))

    def main(ctx):
        yield from ctx.migrate(1)
        yield from ctx.write_i64(0x1000_0000, 1)
        yield from ctx.migrate_back()

    cluster.simulate(main)
    assert {type(c._delivery_tail) for c in cluster.net.connections.values()
            if c.messages} == {carrier}
    assert (carrier is FLIGHT) == (cluster.engine.tracer is None
                                   and cluster.net.chaos is None)
