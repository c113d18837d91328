"""Extended §V-D: performance of DeX's individual mechanisms.

Beyond the paper's two microbenchmarks, these measure the building blocks
the applications' behaviour decomposes into: small-message round trips,
work-delegation round trips, cross-node futex wake latency, and how the
futex-based barrier scales with node count — the cost that bounds the
per-iteration apps (KMN, BP) at high node counts.
"""

import statistics

import pytest

from repro import DexCluster
from repro.runtime import Barrier, MemoryAllocator

GLOBALS = 0x1000_0000


def _ping_rtt():
    cluster = DexCluster(num_nodes=2)

    def main():
        samples = []
        for _ in range(20):
            rtt = yield from cluster.ping(0, 1)
            samples.append(rtt)
        return samples

    proc = cluster.engine.process(main())
    cluster.run()
    return statistics.mean(proc.value)


def test_small_message_round_trip():
    rtt = _ping_rtt()
    print(f"\nverb small-message RTT: {rtt:.2f} us")
    # two wire crossings plus endpoint processing; far below a page fetch
    assert 4.0 < rtt < 15.0


def _delegation_rtt():
    cluster = DexCluster(num_nodes=2)
    proc = cluster.create_process()

    def main(ctx):
        yield from ctx.migrate(1)
        samples = []
        for _ in range(20):
            start = ctx.now
            yield from proc.delegation.call(ctx.node, ctx.tid, "noop")
            samples.append(ctx.now - start)
        yield from ctx.migrate_back()
        return samples

    samples = cluster.simulate(main, proc)
    return statistics.mean(samples)


def test_delegation_round_trip():
    rtt = _delegation_rtt()
    print(f"\nwork-delegation RTT (noop): {rtt:.2f} us")
    assert 5.0 < rtt < 20.0  # a message RTT + dispatch at the origin


def _futex_wake_latency():
    cluster = DexCluster(num_nodes=3)
    proc = cluster.create_process()
    woken_at = {}

    def sleeper(ctx):
        yield from ctx.migrate(1)
        yield from ctx.futex_wait(GLOBALS, expected=0)
        woken_at["time"] = ctx.now

    def waker(ctx):
        yield from ctx.migrate(2)
        yield ctx.engine.timeout(5_000.0)
        woken_at["wake_sent"] = ctx.now
        yield from ctx.futex_wake(GLOBALS, 1)

    t1 = proc.spawn_thread(sleeper)
    t2 = proc.spawn_thread(waker)

    def main(ctx):
        yield from proc.join_all([t1, t2])

    cluster.simulate(main, proc)
    return woken_at["time"] - woken_at["wake_sent"]


def test_cross_node_futex_wake():
    latency = _futex_wake_latency()
    print(f"\ncross-node futex wake-to-run: {latency:.2f} us")
    # waker's delegation to origin + origin wake + sleeper's reply path
    assert 0.0 < latency < 40.0


def _barrier_cost(num_nodes):
    cluster = DexCluster(num_nodes=8)
    proc = cluster.create_process()
    alloc = MemoryAllocator(proc)
    threads_total = 8 * num_nodes
    barrier = Barrier(alloc, threads_total, page_aligned=True)
    waits = []

    def worker(ctx, wid):
        yield from ctx.migrate(wid * num_nodes // threads_total)
        for _ in range(3):
            start = ctx.now
            yield from barrier.wait(ctx)
            waits.append(ctx.now - start)
        yield from ctx.migrate_back()

    threads = [proc.spawn_thread(worker, i) for i in range(threads_total)]

    def main(ctx):
        yield from proc.join_all(threads)

    cluster.simulate(main, proc)
    return statistics.mean(waits)


def test_barrier_scaling_curve():
    def sweep():
        return {n: _barrier_cost(n) for n in (1, 2, 4, 8)}

    curve = sweep()
    print("\nfutex barrier mean wait by node count:")
    for n, cost in curve.items():
        print(f"  {n} node(s), {8 * n} threads: {cost / 1000:.2f} ms")
    # a single-node barrier is nearly free (local futexes); the cross-node
    # cost grows with node count — this bounds per-iteration apps
    assert curve[1] < curve[2] < curve[8]
    assert curve[8] < 5_000.0  # but stays in the low-millisecond range


def _migration_throughput():
    """How quickly can one process fan 64 threads out to 8 nodes?
    (the start-of-parallel-region cost every converted app pays)."""
    cluster = DexCluster(num_nodes=8)
    proc = cluster.create_process()

    def worker(ctx, node):
        yield from ctx.migrate(node)
        yield from ctx.migrate_back()

    start = cluster.engine.now
    threads = [proc.spawn_thread(worker, n % 8) for n in range(64)]

    def main(ctx):
        yield from proc.join_all(threads)

    cluster.simulate(main, proc)
    return cluster.engine.now - start


def test_fan_out_64_threads():
    elapsed = _migration_throughput()
    print(f"\nfan out + back, 64 threads over 8 nodes: {elapsed / 1000:.2f} ms")
    # worker setup per node happens once; forks overlap: far cheaper than
    # 64 serial first-migrations (64 x 812us = 52ms)
    assert elapsed < 15_000.0
