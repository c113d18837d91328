"""Scheduler-initiated migration (§III-A's "easily extended" outlook).

The paper's migrations are explicit calls; this example runs the
:class:`LoadBalancer` extension as a daemon that notices all the work
piled onto one node and spreads it across the rack — threads only opt in
by calling ``ctx.checkpoint()`` at their loop heads.

Run:  python examples/auto_balancing.py
"""

from repro import DexCluster
from repro.core import LoadBalancer


def run(balanced: bool):
    cluster = DexCluster(num_nodes=4)
    proc = cluster.create_process()
    gate = cluster.engine.event()

    def worker(ctx, idx):
        # a naive launcher sent every thread to node 1
        yield from ctx.migrate(1)
        yield gate
        for _ in range(60):
            yield from ctx.compute(cpu_us=120.0)
            yield from ctx.checkpoint()  # safe point for auto-migration
        node = ctx.node
        yield from ctx.migrate_back()
        return node

    threads = [proc.spawn_thread(worker, i) for i in range(16)]
    balancer = LoadBalancer(proc)
    if balanced:
        cluster.engine.process(
            balancer.run(interval_us=2_000.0, until=1_000_000.0)
        )

    def main(ctx):
        yield 10_000.0  # everyone parked on node 1
        start = ctx.now
        gate.succeed()
        nodes = yield from proc.join_all(threads)
        return ctx.now - start, nodes

    elapsed, nodes = cluster.simulate(main, proc)
    return elapsed, nodes, balancer.rebalances


def main():
    piled_time, piled_nodes, _ = run(balanced=False)
    print(f"without balancer: {piled_time / 1000:7.2f} ms  "
          f"(threads finished on nodes {sorted(set(piled_nodes))})")
    spread_time, spread_nodes, rebalances = run(balanced=True)
    print(f"with balancer:    {spread_time / 1000:7.2f} ms  "
          f"(threads finished on nodes {sorted(set(spread_nodes))}, "
          f"{rebalances} rebalance rounds)")
    print(f"\nspeedup from automatic migration: "
          f"{piled_time / spread_time:.1f}x — 16 threads on one 8-core node "
          "were oversubscribed 2:1; the daemon noticed and spread them.")
    assert spread_time < piled_time
    assert len(set(spread_nodes)) > 1


if __name__ == "__main__":
    main()
