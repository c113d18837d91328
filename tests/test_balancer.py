"""Tests for scheduler-initiated automatic migration (the §III-A
extension: balancer policies + ctx.checkpoint())."""

import numpy as np

from repro.core.balancer import AffinityBalancer, LoadBalancer
from repro.runtime import MemoryAllocator
from repro.runtime.array import alloc_array
from repro.tools import FaultTracer

from conftest import make_cluster

GLOBALS = 0x1000_0000


def test_checkpoint_without_hint_is_noop():
    cluster = make_cluster()
    proc = cluster.create_process()

    def main(ctx):
        moved = yield from ctx.checkpoint()
        return moved, ctx.node

    assert cluster.simulate(main, proc) == (None, 0)
    assert proc.stats.migrations == []


def test_checkpoint_honours_posted_hint():
    cluster = make_cluster()
    proc = cluster.create_process()

    def main(ctx):
        proc.migration_hints.post(ctx.tid, 2)
        moved = yield from ctx.checkpoint()
        node_after = ctx.node
        # hint consumed: next checkpoint does nothing
        again = yield from ctx.checkpoint()
        return moved, node_after, again

    assert cluster.simulate(main, proc) == (2, 2, None)
    assert len(proc.stats.migrations) == 1


def test_load_balancer_evens_out_threads():
    cluster = make_cluster()
    proc = cluster.create_process()
    gate = cluster.engine.event()

    def worker(ctx):
        # everyone starts piled up on node 1
        yield from ctx.migrate(1)
        yield gate
        for _ in range(40):
            yield from ctx.compute(cpu_us=50.0)
            yield from ctx.checkpoint()
        return ctx.node

    threads = [proc.spawn_thread(worker) for _ in range(8)]
    balancer = LoadBalancer(proc)

    def main(ctx):
        yield ctx.engine.timeout(8_000.0)  # everyone parked on node 1
        assert balancer.imbalance() >= 8
        posted = balancer.rebalance()
        assert posted > 0
        gate.succeed()
        results = yield from proc.join_all(threads)
        return results

    final_nodes = cluster.simulate(main, proc)
    # started all on node 1; the balancer spread them out
    assert len(set(final_nodes)) > 1
    assert balancer.imbalance() <= max(1, 8 - balancer.hints.pending())


def test_load_balancer_daemon_runs_periodically():
    cluster = make_cluster()
    proc = cluster.create_process()
    gate = cluster.engine.event()

    def worker(ctx):
        yield from ctx.migrate(1)
        yield gate
        for _ in range(60):
            yield from ctx.compute(cpu_us=40.0)
            yield from ctx.checkpoint()
        return ctx.node

    threads = [proc.spawn_thread(worker) for _ in range(6)]
    balancer = LoadBalancer(proc)
    cluster.engine.process(balancer.run(interval_us=1_000.0, until=60_000.0))

    def main(ctx):
        yield ctx.engine.timeout(8_000.0)
        gate.succeed()
        results = yield from proc.join_all(threads)
        return results

    final_nodes = cluster.simulate(main, proc)
    assert balancer.rebalances >= 1
    assert len(set(final_nodes)) > 1


def test_affinity_balancer_moves_thread_to_its_data():
    """A thread at the origin hammering pages owned by node 2 should be
    steered to node 2."""
    cluster = make_cluster()
    proc = cluster.create_process()
    alloc = MemoryAllocator(proc)
    tracer = FaultTracer()
    proc.add_hook(tracer)
    data = alloc_array(alloc, np.int64, 4096, name="remote_data",
                       page_aligned=True)
    balancer = AffinityBalancer(proc, min_faults=3)

    def owner(ctx):
        # node 2 produces the data, becoming its exclusive owner
        yield from ctx.migrate(2)
        yield from data.write(ctx, 0, np.arange(4096, dtype=np.int64))
        yield from ctx.migrate_back()

    def consumer(ctx, start_evt):
        yield start_evt
        total = 0
        for rounds in range(3):
            arr = yield from data.read(ctx, site="consumer")
            total += int(arr.sum())
            yield from ctx.compute(cpu_us=50.0)
            # let the policy look at the trace and maybe move us
            balancer.observe_trace(tracer)
            balancer.steer()
            moved = yield from ctx.checkpoint()
            if moved is not None:
                break
        return ctx.node

    start_evt = cluster.engine.event()
    t_owner = proc.spawn_thread(owner)
    t_consumer = proc.spawn_thread(consumer, start_evt)

    def main(ctx):
        yield t_owner.sim_process
        start_evt.succeed()
        results = yield from proc.join_all([t_consumer])
        return results[0]

    # consumer's faults pull pages owned by node 2 -> steered there
    final_node = cluster.simulate(main, proc)
    assert final_node == 2
