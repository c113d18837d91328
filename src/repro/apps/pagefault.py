"""§V-D's page-fault microbenchmark: two threads on two nodes ping-pong
one global variable with atomic adds until *duration_us* of sim time has
passed.  ``python -m repro.bench pagefault`` reads the bimodal fault
latencies off the run's stats; ``python -m repro.obs --app pagefault``
traces it.
"""

from __future__ import annotations

from typing import Optional

from repro.apps.common import AppResult, conclude, launch
from repro.params import SimParams

#: the rack this micro runs on, whatever node count its spec names
RACK_NODES = 2


def run(
    num_nodes: int = RACK_NODES,
    variant: str = "initial",
    threads_per_node: int = 1,
    params: Optional[SimParams] = None,
    tracer=None,
    cluster=None,
    duration_us: float = 20_000.0,
) -> AppResult:
    """One hammer at the origin, one migrated to node 1; *num_nodes* and
    *threads_per_node* are ignored.  Output is ``(counts, value)``: each
    thread's adds and the variable's final value, correct when no update
    was lost.  ``elapsed_us`` is the run's final sim time."""
    job = launch("pagefault", RACK_NODES, variant, 1, default_seed=0,
                 params=params, tracer=tracer, cluster=cluster)
    proc = job.proc
    var = job.alloc.alloc_global(8, tag="shared_var")

    def hammer(ctx, dest):
        count = 0
        if dest is not None:
            yield from ctx.migrate(dest)
        while ctx.now < duration_us:
            yield from ctx.atomic_add_i64(var, 1, site="hammer")
            yield from ctx.compute(cpu_us=0.1)
            count += 1
        return count

    t1 = proc.spawn_thread(hammer, None)
    t2 = proc.spawn_thread(hammer, 1)

    def main(ctx):
        counts = yield from proc.join_all([t1, t2])
        value = yield from ctx.read_i64(var)
        return counts, value

    def steps():
        counts, value = job.cluster.simulate(main, proc)
        return job.cluster.now, (counts, value), sum(counts) == value

    return conclude(job, steps)
