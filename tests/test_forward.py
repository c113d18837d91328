"""Forwarded handoffs on the sharded directory: the 3-hop exclusive grant.

When a write request revokes an exclusive writer W and the page's home is
neither W nor the requester R, W sends its dirty page straight to R in a
``PAGE_FORWARD`` and acks the home without data; the home grants R
without data, and R installs the page once both have arrived.  These
tests drive each order of that rendezvous deterministically (by holding
a message back at R's router), the outcomes that must leave no
expectation behind, and a hypothesis sweep of extra delays on every
message of the handshake.  A page a write request was turned away from
while its last operation was in flight is handed off through the home
instead, and so is every page under fault injection, where fail-stop
recovery restores a dead writer's page from the home's last flush.

Every scenario runs 4 nodes on the sharded backend with the page homed
on node 3 and its accessors on nodes 0-2, so every uncontended handoff
is a forward.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos.scenario import ChaosScenario
from repro.core.errors import NodeFailedError
from repro.core.process import GLOBALS_BASE
from repro.net.messages import MsgType

from conftest import make_cluster

HOME = 3


def _cluster(**params):
    params.setdefault("directory", "sharded")
    cluster = make_cluster(num_nodes=4, **params)
    proc = cluster.create_process()
    page = cluster.params.page_size
    directory = proc.protocol.directory
    vpn = next(v for v in range(GLOBALS_BASE // page, GLOBALS_BASE // page + 64)
               if directory.home(v) == HOME)
    return cluster, proc, vpn * page


def _intercept(cluster, node, hold):
    """Route *node*'s incoming messages through ``hold(msg, deliver)``,
    which returns True when it keeps the message to deliver it later."""
    router = cluster.net.routers[node]
    deliver = router.dispatch

    def dispatch(msg):
        if not hold(msg, deliver):
            deliver(msg)

    router.dispatch = dispatch
    return deliver


def _log_arrivals(cluster, node, log):
    router = cluster.net.routers[node]
    deliver = router.dispatch

    def dispatch(msg):
        log.append((msg.msg_type, msg.payload.get("forwarded", False)))
        deliver(msg)

    router.dispatch = dispatch


def _handoff_main(addr, writers=(1, 2)):
    """Each node of *writers* in turn writes its own word of the page;
    the origin then reads them all back."""

    def writer(ctx, node, value):
        yield from ctx.migrate(node)
        yield from ctx.write_i64(addr + 8 * node, value)

    def main(ctx):
        for node in writers:
            t = ctx.spawn(writer, node, 100 + node, name=f"w{node}")
            yield from ctx.join(t)
        values = []
        for node in writers:
            values.append((yield from ctx.read_i64(addr + 8 * node)))
        return values

    return main


def _assert_no_expectations(cluster):
    for router in cluster.net.routers:
        assert router._pending == {}, (router.node_id, router._pending)


def test_forward_arrives_before_grant():
    cluster, proc, addr = _cluster()
    log = []
    _log_arrivals(cluster, 2, log)
    values = cluster.simulate(_handoff_main(addr), proc)
    assert values == [101, 102]
    # node 1 -> node 2 goes W -> R directly, the grant W -> home -> R
    kinds = [kind for kind, _ in log if kind in (MsgType.PAGE_FORWARD,
                                                 MsgType.PAGE_GRANT)]
    assert kinds[:2] == [MsgType.PAGE_FORWARD, MsgType.PAGE_GRANT]
    assert (MsgType.PAGE_GRANT, True) in log
    # origin -> node 1, node 1 -> node 2: one payload per handoff
    assert proc.stats.pages_forwarded == 2
    _assert_no_expectations(cluster)
    proc.protocol.check_invariants()


def test_grant_arrives_before_forward():
    cluster, proc, addr = _cluster()
    log = []
    engine = cluster.engine

    def late(msg, deliver):
        log.append(msg.msg_type)
        deliver(msg)

    def hold(msg, deliver):
        if msg.msg_type is MsgType.PAGE_FORWARD:
            engine._schedule_at(engine.now + 150.0, late, msg, deliver)
            return True
        log.append(msg.msg_type)
        return False

    _intercept(cluster, 2, hold)
    values = cluster.simulate(_handoff_main(addr), proc)
    assert values == [101, 102]
    grant = log.index(MsgType.PAGE_GRANT)
    assert log.index(MsgType.PAGE_FORWARD) > grant
    _assert_no_expectations(cluster)


def test_invalidation_behind_grant_waits_for_forwarded_page():
    """The home's next invalidation to R is queued behind R's data-less
    grant while the page is still on its way: R is ``installing`` from
    the grant on, so the invalidation waits for the page and for R's
    write, and nothing R wrote is lost."""
    cluster, proc, addr = _cluster()
    engine = cluster.engine
    granted = engine.event(name="granted")
    held = []
    order = []

    def hold(msg, deliver):
        if msg.msg_type is MsgType.PAGE_GRANT and msg.payload.get("forwarded"):
            order.append("grant")
            if not granted.triggered:
                granted.succeed()
        elif msg.msg_type is MsgType.PAGE_FORWARD and not held:
            held.append((msg, deliver))
            return True
        elif msg.msg_type is MsgType.PAGE_INVALIDATE:
            order.append("invalidate")
            for page, send in held:
                engine._schedule_at(engine.now + 20.0, send, page)
                order.append("forward")
        return False

    _intercept(cluster, 2, hold)

    def writer(ctx):
        yield from ctx.migrate(2)
        yield from ctx.write_i64(addr + 16, 102)

    def main(ctx):
        # the origin hands the page to node 2 (home 3), then wants it back
        # the moment node 2's grant lands, with the page still held
        yield from ctx.write_i64(addr, 100)
        t = ctx.spawn(writer, name="w2")
        yield granted
        yield from ctx.write_i64(addr + 8, 101)
        yield from ctx.join(t)
        values = []
        for i in range(3):
            values.append((yield from ctx.read_i64(addr + 8 * i)))
        return values

    values = cluster.simulate(main, proc)
    assert values == [100, 101, 102]
    assert order[:3] == ["grant", "invalidate", "forward"]
    _assert_no_expectations(cluster)
    proc.protocol.check_invariants()


def _track_expectations(cluster, node):
    """Count the forward expectations *node* opened and closed."""
    router = cluster.net.routers[node]
    opened = []
    expect = router.expect_forward

    def expect_forward(request_id):
        opened.append(request_id)
        return expect(request_id)

    router.expect_forward = expect_forward
    return opened


def test_retry_leaves_no_expectation():
    cluster, proc, addr = _cluster()
    opened = _track_expectations(cluster, 2)

    def hammer(ctx, node):
        yield from ctx.migrate(node)
        for i in range(6):
            yield from ctx.atomic_add_u32(addr, 1)

    def main(ctx):
        threads = [ctx.spawn(hammer, n, name=f"h{n}") for n in (1, 2)]
        for _ in range(6):
            yield from ctx.atomic_add_u32(addr, 1)
        for t in threads:
            yield from ctx.join(t)
        return (yield from ctx.read_u32(addr))

    assert cluster.simulate(main, proc) == 18
    assert proc.stats.fault_retries > 0 and opened
    _assert_no_expectations(cluster)


def test_redirect_leaves_no_expectation():
    cluster, proc, addr = _cluster()
    directory = proc.protocol.directory
    opened = _track_expectations(cluster, 2)
    # poison node 2's shard-map copy: its first request goes to node 1
    directory.learn_map(2, (1,) * directory.nshards)
    values = cluster.simulate(_handoff_main(addr), proc)
    assert values == [101, 102]
    assert proc.stats.hint_stale == 1 and len(opened) == 2
    _assert_no_expectations(cluster)


def test_failed_outcome_leaves_no_expectation():
    cluster, proc, addr = _cluster()
    opened = _track_expectations(cluster, 2)

    def hold(msg, deliver):
        # the verdict lands while node 2's write request is on the wire
        if msg.msg_type is MsgType.PAGE_REQUEST and msg.src == 2:
            proc.failed = NodeFailedError(1, "seeded verdict")
        return False

    _intercept(cluster, HOME, hold)

    def writer(ctx):
        yield from ctx.migrate(2)
        yield from ctx.write_i64(addr, 7)

    def main(ctx):
        yield from ctx.write_i64(addr, 1)
        t = ctx.spawn(writer, name="w2")
        yield from ctx.join(t)

    with pytest.raises(NodeFailedError, match="seeded verdict"):
        cluster.simulate(main, proc)
    assert opened
    _assert_no_expectations(cluster)
    proc.failed = None


#: the messages of the handshake a delay may hold back
_DELAYED = (MsgType.PAGE_INVALIDATE, MsgType.PAGE_FORWARD,
            MsgType.PAGE_INVALIDATE_ACK, MsgType.PAGE_GRANT)


def _delay_handshake(cluster, delays):
    """Hold each handshake message back by the next of *delays*, keeping
    every connection in order (RC delivers in post order)."""
    engine = cluster.engine
    released = {}
    turn = iter(delays * 1000)
    for node, router in enumerate(cluster.net.routers):
        deliver = router.dispatch

        def dispatch(msg, deliver=deliver):
            extra = next(turn, 0.0) if msg.msg_type in _DELAYED else 0.0
            key = (msg.src, msg.dst)
            at = max(engine.now + extra, released.get(key, 0.0))
            released[key] = at
            if at > engine.now:
                engine._schedule_at(at, deliver, msg)
            else:
                deliver(msg)

        router.dispatch = dispatch


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(delays=st.lists(st.sampled_from([0.0, 0.0, 3.0, 40.0, 250.0]),
                       min_size=1, max_size=12))
def test_delayed_handshake_loses_no_update(delays):
    cluster, proc, addr = _cluster(sanitize="all")
    _delay_handshake(cluster, delays)

    def hammer(ctx, node, rounds):
        if node:
            yield from ctx.migrate(node)
        for i in range(rounds):
            yield from ctx.atomic_add_u32(addr, 1)
            yield from ctx.write_i64(addr + 8 * (node + 1), i + 1)
            yield from ctx.sleep(7.0 * node)

    def main(ctx):
        threads = [ctx.spawn(hammer, n, 4, name=f"h{n}") for n in (1, 2)]
        yield from hammer(ctx, 0, 4)
        for t in threads:
            yield from ctx.join(t)
        total = yield from ctx.read_u32(addr)
        last = []
        for n in range(3):
            last.append((yield from ctx.read_i64(addr + 8 * (n + 1))))
        return total, last

    total, last = cluster.simulate(main, proc)
    assert total == 12 and last == [4, 4, 4]
    proc.protocol.check_invariants()
    _assert_no_expectations(cluster)
    cluster.close()


@pytest.mark.parametrize("write", [True, False], ids=["write", "read"])
def test_refused_write_marks_page_contended(write):
    """A request that finds node 1 -> node 2's handoff in flight is told
    to retry; once the handoff is done the page counts as contended if
    that request was a write."""
    cluster, proc, addr = _cluster()
    vpn = addr // cluster.params.page_size
    engine = cluster.engine

    def hold(msg, deliver):
        if msg.msg_type is MsgType.PAGE_INVALIDATE:
            engine.process(proc.protocol.handle_request(0, vpn, write, 0))
        return False

    _intercept(cluster, 1, hold)
    directory = proc.protocol.directory

    def writer(ctx, node):
        yield from ctx.migrate(node)
        yield from ctx.write_i64(addr, node)

    def main(ctx):
        for node in (1, 2):
            yield from ctx.join(ctx.spawn(writer, node, name=f"w{node}"))
        entry = directory.lookup(vpn)
        return entry.contended, entry.write_refused, entry.busy_retries

    assert cluster.simulate(main, proc) == (write, False, 1)


def test_contended_page_is_handed_off_through_the_home():
    """A write request turned away while the page's last operation was
    in flight marks the page contended: its next handoff goes through
    the home (the writer flushes, the home grants with data), so the
    writers queued for the page do not take it from each owner sooner."""
    cluster, proc, addr = _cluster()
    directory = proc.protocol.directory
    vpn = addr // cluster.params.page_size

    def writer(ctx, node, value):
        yield from ctx.migrate(node)
        yield from ctx.write_i64(addr + 8 * node, value)

    def main(ctx):
        t = ctx.spawn(writer, 1, 101, name="w1")
        yield from ctx.join(t)
        directory.lookup(vpn).contended = True
        t = ctx.spawn(writer, 2, 102, name="w2")
        yield from ctx.join(t)
        return directory.lookup(vpn).contended

    assert cluster.simulate(main, proc) is False
    # origin -> node 1 forwarded; node 1 -> node 2 through the home
    assert proc.stats.pages_forwarded == 1
    _assert_no_expectations(cluster)
    proc.protocol.check_invariants()


# ----------------------------------------------------------------------
# fault injection: every handoff leaves the page at the home
# ----------------------------------------------------------------------


def test_no_forward_under_fault_injection():
    scenario = ChaosScenario(rules=[], seed=3).validate()
    cluster, proc, addr = _cluster(chaos_scenario=scenario)
    assert cluster.simulate(_handoff_main(addr), proc) == [101, 102]
    assert proc.stats.pages_forwarded == 0
    proc.protocol.check_invariants()


def test_rollback_after_new_writer_dies_keeps_old_writers_write():
    """Node 1 writes, then node 2 takes the page for writing and dies.
    Fail-stop recovery rolls node 2's page back to the home's last flush,
    which holds node 1's write: the handoff from node 1 went through the
    home, as every handoff does under fault injection."""
    scenario = ChaosScenario(rules=[], seed=5,
                             on_exclusive_loss="rollback").validate()
    cluster, proc, addr = _cluster(chaos_scenario=scenario)
    wrote = cluster.engine.event(name="wrote")

    def writer(ctx, node, value):
        yield from ctx.migrate(node)
        yield from ctx.write_i64(addr + 8, value)
        yield from ctx.migrate_back()

    def doomed(ctx):
        yield from ctx.migrate(2)
        yield from ctx.write_i64(addr + 8, 999)
        wrote.succeed()
        yield from ctx.compute(cpu_us=50_000)

    def main(ctx):
        t = ctx.spawn(writer, 1, 101, name="w1")
        yield from ctx.join(t)
        ctx.spawn(doomed, name="w2")
        yield wrote
        cluster.chaos.crash(2, "dies holding the page")
        yield from ctx.compute(cpu_us=5000)  # detection and recovery
        return (yield from ctx.read_i64(addr + 8))

    assert cluster.simulate(main, proc) == 101
    assert cluster.chaos.report()["failed"] == [2]
    assert proc.stats.pages_forwarded == 0


def test_sharded_kmn8_moves_no_more_pages_than_origin():
    """The second page hop is gone for exclusive handoffs: KMN-initial@8
    on the sharded directory moves no more pages than on the origin one
    (it moved 2,257 against 1,596 while every handoff went home)."""
    from repro.apps import RunSpec

    runs = {backend: RunSpec("KMN", "initial", 8, "small",
                             directory=backend).run()
            for backend in ("origin", "sharded")}
    assert all(run.correct for run in runs.values())
    origin, sharded = runs["origin"].stats, runs["sharded"].stats
    assert origin.pages_forwarded == 0 < sharded.pages_forwarded
    assert sharded.pages_transferred <= origin.pages_transferred
