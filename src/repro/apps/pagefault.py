"""§V-D's page-fault microbenchmark: two threads on two nodes ping-pong
one global variable with atomic adds until *duration_us* of sim time has
passed.  ``python -m repro.bench pagefault`` reads the bimodal fault
latencies off the run's stats; ``python -m repro.obs --app pagefault``
traces it.
"""

from __future__ import annotations

from repro.apps.common import AppResult, Launch, conclude

#: the rack this micro runs on, whatever node count its spec names
RACK_NODES = 2


def run(job: Launch, duration_us: float = 20_000.0) -> AppResult:
    """One hammer at the origin, one migrated to node 1.  Output is
    ``(counts, value)``: each thread's adds and the variable's final value,
    correct when no update was lost.  ``elapsed_us`` is the run's final
    sim time."""
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

    counts, value = job.cluster.simulate(main, proc)
    return conclude(job, job.cluster.now, (counts, value),
                    sum(counts) == value)
