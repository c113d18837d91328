"""Differential tests of the message carrier.

Every posted message is carried by one ``_Flight`` whose stages the engine
calls directly — plain, traced and fault-injected runs alike.  The
generator those stages were derived from lives on as the reference in
``tests/oracles/wire.py``.  Twin fabrics, one on each carrier, must be
indistinguishable: same final clock, same sequence numbers consumed, same
number of dispatches, same deliveries at the same times, same pool
counters, the same spans and the same fault-injection outcomes.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from oracles import wire as wire_oracle
from repro import DexCluster
from repro.bench.runner import run_point
from repro.chaos.controller import ChaosController
from repro.chaos.scenario import ChaosRule, ChaosScenario
from repro.net import Message, MsgType, Network, fabric
from repro.obs import __main__ as obs_cli
from repro.obs.ring import FlightRecorder, load_snapshot
from repro.obs.tracing import Tracer
from repro.params import PAGE_TRANSFER_MODES, SWITCHES, SimParams
from repro.sim import Engine, Event

PAGE = bytes(4096)
FLIGHT = fabric._Flight  # the oracle rebinds the module's name
BASELINE = (Path(__file__).resolve().parent.parent
            / "benchmarks" / "baselines" / "dex-run-kmn4.json")
#: the observer capacities, the DRAM-contention override and the owner-hint
#: LRU's capacity that were SimParams fields when the pinned manifests below
#: were written, keyed by the field each followed
FORMER_FIELDS = {
    "trace": {"trace_max_spans": 1_000_000},
    "lens_window_us": {"lens_window_slices": 8, "lens_max_keys": 4096,
                       "lens_max_traces": 256, "lens_ring_spans": 4096,
                       "lens_ring_msgs": 2048},
    "scope": {"scope_interval_us": 500.0, "scope_series_points": 512,
              "scope_max_series": 4096},
    "page_transfer_mode": {"dram_contention": None},
    "directory_shards": {"owner_hint_capacity": 1024},
}
#: counters (and their scope series) added since that commit, left out
#: again when its file is rebuilt
LATER_COUNTERS = ("pages_forwarded", "home_revocations")

#: the twin comparisons' columns: the bare fabric, and the fabric with a
#: tracer attached (every span either carrier opens is compared)
COLUMNS = (False, True)


class WireTotals:
    """Stands in for DexScope: what ``on_wire`` was told, in order."""

    def __init__(self):
        self.notes = []

    def on_wire(self, conn, wire_bytes, wait_us):
        self.notes.append((conn.src, conn.dst, wire_bytes, wait_us))


def span_rows(tracer):
    """Every recorded span, in full (message ids included: each fabric
    numbers its messages from 1)."""
    return [(s.name, s.span_id, s.trace_id, s.parent_id, s.node,
             s.start_us, s.end_us, s.attrs) for s in tracer.spans]


def run_fabric(scenario, num_nodes, scope, overrides, traced=False, rules=()):
    eng = Engine()
    params = SimParams(**overrides)
    tracer = Tracer(eng) if traced else None
    chaos = None
    if rules:  # rule objects count their own matches: fresh ones per run
        chaos = ChaosController(eng, params, ChaosScenario(
            rules=[ChaosRule(**rule) for rule in rules]))
    net = Network(eng, num_nodes, params, chaos=chaos)
    wire_totals = WireTotals()
    if scope:  # added after the fabric was built: its held list sees it
        eng.add_hook(wire_totals)
    log = []
    scenario(eng, net, log)
    eng.run()
    used = [c for c in net.connections.values() if c.messages]
    by_id = {s.span_id: s for s in tracer.spans} if traced else {}
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
        "scope": wire_totals.notes if scope else None,
        "spans": span_rows(tracer) if traced else None,
        "open_stacks": len(tracer._stacks) if traced else 0,
        "chaos": chaos.report() if rules else None,
        "chaos_parents": [
            (s.name, by_id[s.parent_id].name, by_id[s.parent_id].attrs["msg_type"])
            for s in by_id.values() if s.name.startswith("chaos.")],
        "duplicates": sum(r.duplicates_dropped for r in net.routers),
    }


def twins(scenario, monkeypatch, num_nodes=2, scope=False, traced=False,
          rules=(), **overrides):
    """*scenario* on a flight fabric and on a generator fabric; asserts
    they cannot be told apart and returns the flight's observation."""
    flight = run_fabric(scenario, num_nodes, scope, overrides, traced, rules)
    with monkeypatch.context() as patch:
        wire_oracle.install(patch)
        generator = run_fabric(scenario, num_nodes, scope, overrides, traced,
                               rules)
    assert flight.pop("carriers") == {FLIGHT}
    assert generator.pop("carriers") == {Event}
    assert flight["deliveries"], "the scenario delivered nothing"
    if traced:
        # the tracer is an engine hook, and with a hook installed the
        # engine announces the end of every process: the one dispatch (and
        # sequence number) per message the generator has over the flight
        on_wire = sum(n for n, _ in flight["connections"].values())
        for count in ("seq", "events"):
            assert generator.pop(count) - flight.pop(count) == on_wire
        assert flight["spans"] and flight["open_stacks"] == 0
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
    for traced in COLUMNS:
        seen = twins(back_to_back(control), monkeypatch, traced=traced)
        assert [i for _, _, i in seen["deliveries"]] == [0]
        assert seen["sent"] == (1, 0)


@pytest.mark.parametrize("mode", PAGE_TRANSFER_MODES)
def test_a_page_message_in_each_transfer_mode(mode, monkeypatch):
    for traced in COLUMNS:
        seen = twins(back_to_back(page), monkeypatch, traced=traced,
                     page_transfer_mode=mode)
        assert seen["sent"] == (1, 1)
        # the sink slot is taken by the sender and recycled by the carrier
        assert seen["pools"]["c0->1.sink"] == ((mode == "rdma_sink"), 0, 0)
    # the receive span closes before the wire span around it
    (recv,) = [row for row in seen["spans"] if row[0] == "net.rdma_recv"]
    (wire,) = [row for row in seen["spans"] if row[0] == "net.wire"]
    assert recv[3] == wire[1] and wire[5] < recv[5] < recv[6] <= wire[6]
    assert recv[7] == {"bytes": len(PAGE), "mode": mode}


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

    for traced in COLUMNS:
        seen = twins(scenario, monkeypatch, traced=traced,
                     page_transfer_mode=mode)
    # one tree: the reply's handler root hangs off the request
    assert len({row[2] for row in seen["spans"]}) == 1


def test_an_exhausted_receive_pool(monkeypatch):
    for traced in COLUMNS:
        seen = twins(back_to_back(page, page, control, page), monkeypatch,
                     traced=traced, recv_pool_chunks=1)
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


@pytest.mark.parametrize("rule, delivered", [
    # the dropped ping never reaches its handler; its successor still does
    pytest.param(dict(kind="drop", msg_type="ping", nth=1), [0, 2], id="drop"),
    # a delayed page holds its slot in the chain: head-of-line blocking
    pytest.param(dict(kind="delay", msg_type="page_grant", nth=1,
                      delay_us=250.0), [0, 1, 2], id="delay"),
    # the copy is suppressed by the router's duplicate filter (one ack)
    pytest.param(dict(kind="duplicate", msg_type="ping", nth=1), [0, 1, 2],
                 id="duplicate"),
    # the reordered ping does not wait for the page posted before it, and
    # the ping behind it waits only for the ping
    pytest.param(dict(kind="reorder", msg_type="ping", nth=1), [1, 2, 0],
                 id="reorder"),
    pytest.param(dict(kind="degrade", factor=3.0, times=None), [0, 1, 2],
                 id="degrade"),
])
def test_a_fault_injection_verdict(rule, delivered, monkeypatch):
    """One rule of each kind on page, ping, ping: the carriers agree on the
    clock, the deliveries, the controller's report and every span —
    ``chaos.*`` nested under the ``net.wire`` of the message it hit."""
    seen = twins(back_to_back(page, control, control), monkeypatch,
                 traced=True, rules=[rule])
    untouched = run_fabric(back_to_back(page, control, control), 2, False, {})
    assert [i for _, _, i in seen["deliveries"]] == delivered
    fired = seen["chaos"]["injections"][rule["kind"]]
    assert fired == (3 if rule["kind"] == "degrade" else 1)
    assert len(seen["chaos_parents"]) == fired
    assert all((name, parent) == (f"chaos.{rule['kind']}", "net.wire")
               and msg_type == rule.get("msg_type", msg_type)
               for name, parent, msg_type in seen["chaos_parents"])
    assert seen["duplicates"] == (rule["kind"] == "duplicate")
    assert (seen["now"] > untouched["now"]) == (
        rule["kind"] in ("delay", "degrade", "duplicate"))
    # dropped or not, every message gave its chunks back
    assert all(in_use == 0 for _, _, in_use in seen["pools"].values())


def test_a_stalled_traced_flight_is_in_the_flight_recorder_dump(tmp_path):
    """A flight is not a process, but its open spans are crash evidence
    like any blocked thread's: a dump taken while it waits on an exhausted
    receive pool shows its ``net.wire`` span, unfinished, in the poster's
    trace."""
    eng = Engine()
    tracer = Tracer(eng)
    recorder = FlightRecorder(tracer, num_nodes=2)
    eng.add_hook(recorder)
    net = Network(eng, 2, SimParams(recv_pool_chunks=1))
    net.connection(0, 1).recv_pool.take()  # never given back
    log = []
    back_to_back(control)(eng, net, log)
    eng.run()
    assert not log and net.connection(0, 1).recv_pool.stalls == 1
    path = tmp_path / "dex-flightrec.json"
    recorder.dump(str(path), reason="stalled flight")
    spans, _meta = load_snapshot(str(path))
    (send,) = [s for s in spans if s.name == "net.send"]
    (wire,) = [s for s in spans if s.name == "net.wire"]
    assert wire.attrs["unfinished"] and "unfinished" not in send.attrs
    assert (wire.trace_id, wire.parent_id) == (send.trace_id, send.span_id)
    assert [s.name for s in tracer.open_spans()] == ["net.wire"]


def test_a_dropped_traced_message_leaves_no_span_stack_behind():
    eng = Engine()
    tracer = Tracer(eng)
    params = SimParams()
    chaos = ChaosController(eng, params, ChaosScenario(
        rules=[ChaosRule(kind="drop", msg_type="page_grant", nth=1)]))
    net = Network(eng, 2, params, chaos=chaos)
    log = []
    back_to_back(page, control)(eng, net, log)
    eng.run()
    assert [i for _, _, i in log] == [1]
    assert tracer._stacks == {} and tracer.open_spans() == []
    assert all(s.end_us is not None for s in tracer.spans)


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
def test_an_app_run_cannot_tell_the_carriers_apart(backend, monkeypatch):
    """Whole stack: KMN-initial on four nodes consumes the same sequence
    numbers and dispatches the same events on either carrier.  The test
    builds the cluster, so the run leaves it open for the carriers to be
    read afterwards."""
    for switch in SWITCHES.values():  # no tracer, no chaos, no engine hooks
        monkeypatch.delenv(switch.env, raising=False)

    def run():
        cluster = DexCluster(params=SimParams(directory=backend))
        result = run_point("KMN", "initial", 4, cluster=cluster,
                           n_points=10_000, max_iters=2)
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


@pytest.mark.parametrize("knobs", [
    {},
    {"scope": "1"},
    {"sanitize": "1"},
    {"trace": "1"},
    {"lens": "1"},
    {"chaos": "on"},
    {"scope": "1", "sanitize": "1", "trace": "1", "lens": "1", "chaos": "on"},
], ids=lambda knobs: "+".join(knobs) or "none")
def test_every_knob_rides_the_flight(knobs, monkeypatch):
    for switch in SWITCHES.values():
        monkeypatch.delenv(switch.env, raising=False)
    cluster = DexCluster(num_nodes=2, params=SimParams(**knobs))

    def main(ctx):
        yield from ctx.migrate(1)
        yield from ctx.write_i64(0x1000_0000, 1)
        yield from ctx.migrate_back()

    cluster.simulate(main)
    assert ("trace" in knobs or "lens" in knobs) == (
        cluster.engine.tracer is not None)
    assert ("chaos" in knobs) == (cluster.net.chaos is not None)
    assert {type(c._delivery_tail) for c in cluster.net.connections.values()
            if c.messages} == {FLIGHT}


@pytest.mark.parametrize("backend, parent_sha256", [
    ("origin",
     "dbd82414999a87bbd6e7ba27a858f21679671b58f5c03306cd1e92a911666bcc"),
    ("sharded",
     "8e8e36e547e00a01a9bf1af671bbf72f157583c6d0c4352c1082f75b1d6c9faa"),
], ids=["origin", "sharded"])
def test_the_generator_reproduces_the_manifest_of_the_last_commit_that_had_it(
        backend, parent_sha256, tmp_path, monkeypatch):
    """The KMN@4 manifest is a traced run, so until the flight carried
    spans it was a generator run.  With the oracle installed the old file
    comes back byte for byte, once the observer capacities that were
    ``SimParams`` fields then are written back into its ``params``;
    today's baseline differs from it only in the dispatches the
    generator's processes cost — one per message on the wire — and the
    per-microsecond series derived from that count.  The sharded pin was
    re-taken when a remote node began to learn the whole shard map from
    its first home lookup: the run makes 3 lookups where the per-page hint
    cache made 302, so its messages and timings changed.  It was re-taken
    again when an uncontended exclusive handoff between two nodes other
    than the home began to forward the page from the old writer to the
    new one: the page no longer detours through the home, so the run
    moves fewer pages and sends a data-less ack and grant in their
    place."""
    wire_oracle.install(monkeypatch)
    out = tmp_path / "dex-run.json"
    assert obs_cli.main(["manifest", "--app", "KMN", "--variant", "initial",
                         "--nodes", "4", "--directory", backend,
                         "--out", str(out)]) == 0
    old = json.loads(out.read_text())
    params = {}
    for key, value in old["params"].items():
        params[key] = value
        params.update(FORMER_FIELDS.get(key, {}))
    counters = {key: value for key, value in old["counters"].items()
                if key not in LATER_COUNTERS}
    series = {key: value for key, value in old["series"].items()
              if key.partition(".")[2] not in LATER_COUNTERS}
    old_text = json.dumps({**old, "params": params, "counters": counters,
                           "series": series}, indent=1) + "\n"
    assert hashlib.sha256(old_text.encode()).hexdigest() == parent_sha256
    if backend == "origin":
        new = json.loads(BASELINE.read_text())
        assert (old["result"].pop("events_dispatched")
                - new["result"].pop("events_dispatched")
                == new["counters"]["net_messages_sent"] == 3530)
        assert (old["series"].pop("engine.sched_per_us")
                != new["series"].pop("engine.sched_per_us"))
        assert old == new
