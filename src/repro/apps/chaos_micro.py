"""The chaos suite's micro: a fixed-iteration two-node workload that sends
every request-class control message (page faults, invalidation
ping-pong, migration both ways, delegation, VMA query/shrink), so a "drop
each message type once" sweep has something to drop.  Correctness is
exact: the shared counter must equal the iteration count.
"""

from __future__ import annotations

from typing import Optional

from repro.apps.common import AppResult, conclude, launch
from repro.params import SimParams
from repro.runtime import Barrier

#: the rack this micro runs on, whatever node count its spec names
RACK_NODES = 2


def run(
    num_nodes: int = RACK_NODES,
    variant: str = "initial",
    threads_per_node: int = 1,
    params: Optional[SimParams] = None,
    tracer=None,
    cluster=None,
    iters: int = 40,
) -> AppResult:
    """Two threads hammer one shared counter — one at the origin, one
    migrated to node 1 — then rendezvous on a futex barrier; the remote
    thread also maps/touches/unmaps a scratch region so delegation and the
    eager VMA-shrink broadcast run too.  *num_nodes* and
    *threads_per_node* are ignored.  Output is the counter's final value;
    ``elapsed_us`` is the run's final sim time."""
    job = launch("micro", RACK_NODES, variant, 1, default_seed=0,
                 params=params, tracer=tracer, cluster=cluster)
    proc = job.proc
    var = job.alloc.alloc_global(8, tag="chaos_micro")
    barrier = Barrier(job.alloc, 2, name="micro")
    expected = 2 * iters

    def remote(ctx):
        yield from ctx.migrate(1)
        # delegated mmap; the replica learns the VMA on first touch
        # (VMA_QUERY), and the delegated munmap triggers the origin's
        # eager VMA_SHRINK broadcast back to this node
        scratch = yield from ctx.mmap(4096, tag="scratch")
        yield from ctx.write_i64(scratch, 1, site="micro:scratch")
        for _ in range(iters):
            yield from ctx.atomic_add_i64(var, 1, site="micro:remote")
            yield from ctx.compute(cpu_us=0.2)
        yield from ctx.munmap(scratch, 4096)
        yield from barrier.wait(ctx)
        yield from ctx.migrate_back()
        return iters

    def local(ctx):
        for _ in range(iters):
            yield from ctx.atomic_add_i64(var, 1, site="micro:local")
            yield from ctx.compute(cpu_us=0.2)
        yield from barrier.wait(ctx)
        return iters

    t_remote = proc.spawn_thread(remote, name="remote")
    t_local = proc.spawn_thread(local, name="local")

    def main(ctx):
        yield from proc.join_all([t_remote, t_local])
        value = yield from ctx.read_i64(var)
        return value

    def steps():
        value = job.cluster.simulate(main, proc)
        return job.cluster.now, value, value == expected

    return conclude(job, steps)
