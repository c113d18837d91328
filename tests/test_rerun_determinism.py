"""Determinism across reruns in one interpreter: identity belongs to the
cluster.  A ``DexCluster`` numbers its processes and its messages from 1
whatever ran before it, so one traced chaos run repeated in the same
process writes the same span log and the same chaos report, byte for
byte."""

import json

from repro import DexCluster
from repro.apps.common import RunSpec
from repro.chaos.scenario import ChaosRule, ChaosScenario
from repro.net import Message, MsgType, Network
from repro.params import SimParams
from repro.sim import Engine


def traced_drop_run(path):
    """The pagefault micro, traced, with its first page request dropped;
    returns the saved span log and the chaos report as bytes."""
    scenario = ChaosScenario(rules=[  # rules count their matches: fresh ones
        ChaosRule(kind="drop", msg_type="page_request", nth=1)], seed=3)
    spec = RunSpec("micro", base=SimParams(
        trace="1", chaos_scenario=scenario.validate()))
    cluster = spec.cluster()
    assert spec.run(cluster=cluster).correct
    report = cluster.chaos.report()
    assert report["injections"] == {"drop": 1}
    cluster.tracer.save_json(str(path))
    return path.read_bytes(), json.dumps(report, sort_keys=True)


def test_a_traced_chaos_run_repeats_byte_for_byte(tmp_path):
    first = traced_drop_run(tmp_path / "first.json")
    second = traced_drop_run(tmp_path / "second.json")
    assert b'"chaos.drop"' in first[0] and b'"msg_id"' in first[0]
    assert first == second


def test_each_cluster_numbers_from_one():
    for _ in range(2):
        cluster = DexCluster(num_nodes=2)
        procs = [cluster.create_process() for _ in range(2)]
        assert [p.pid for p in procs] == [1, 2]
        assert procs[0].name == "proc1"
        request = Message(MsgType.PING, src=0, dst=1)
        reply = cluster.engine.run_process(cluster.net.request(request))
        assert (request.msg_id, reply.msg_id, reply.reply_to) == (1, 2, 1)


def test_a_message_is_stamped_once_at_its_first_send():
    """A message has no id until the fabric first sends it; sending the same
    object again — what a retransmission does — keeps the id, so the
    responder's duplicate filter recognises it, and the next new message
    gets the next id."""
    eng = Engine()
    net = Network(eng, 2, SimParams())
    seen = []

    def handler(msg):
        seen.append(msg.msg_id)
        yield 0.0

    net.router(1).register(MsgType.PING, handler)
    msg = Message(MsgType.PING, 0, 1)
    assert msg.msg_id == 0

    def sender():
        yield from net.send(msg)
        yield from net.send(msg)
        yield from net.send(Message(MsgType.PING, 0, 1))

    eng.process(sender())
    eng.run()
    assert seen == [1, 1, 2]
