"""The §IV workflow: profile page faults, find false sharing, fix it.

A deliberately bad multi-threaded histogram: every thread's partial
counters live on ONE page (bump-allocated together), so on DeX the page
ping-pongs between all nodes.  We:

1. run it with the fault tracer attached (and save the trace),
2. let the trace analysis point at the guilty page and call sites,
3. apply the paper's fix — page-aligned per-thread counters with local
   staging — and measure the difference.

Run:  python examples/profile_and_optimize.py
The naive run's trace is left in ./trace.csv, so step 2 can be redone
offline, with the advisor's suggestions:  python -m repro.tools trace.csv
"""

import numpy as np

from repro import DexCluster
from repro.runtime import Barrier, MemoryAllocator
from repro.runtime.array import alloc_array
from repro.tools import FaultTracer, TraceAnalysis

NODES = 4
THREADS = 16
ITEMS_PER_THREAD = 150
BINS = 8


def run_variant(page_aligned: bool):
    cluster = DexCluster(num_nodes=NODES)
    proc = cluster.create_process()
    alloc = MemoryAllocator(proc)
    tracer = FaultTracer()
    proc.add_hook(tracer)

    if page_aligned:
        # the fix: each thread's counters own their pages; one merge at
        # the end (the §IV-C local-staging recipe)
        shared = alloc_array(alloc, np.int64, BINS, name="hist",
                             segment="globals", page_aligned=True)
    else:
        # the bug: one shared counter page everyone hammers
        shared = alloc_array(alloc, np.int64, BINS, name="hist",
                             segment="globals")

    start_gate = Barrier(alloc, THREADS, name="start", page_aligned=True)

    def worker(ctx, wid):
        rng = np.random.default_rng(wid)
        yield from ctx.migrate(wid * NODES // THREADS)
        yield from start_gate.wait(ctx)  # start together, like real workers
        local = np.zeros(BINS, dtype=np.int64)
        for i in range(ITEMS_PER_THREAD):
            yield from ctx.compute(cpu_us=2.0)
            bin_idx = int(rng.integers(0, BINS))
            if page_aligned:
                local[bin_idx] += 1          # stage locally
            else:
                yield from shared.add(ctx, bin_idx, 1, site="histogram:add")
        if page_aligned:
            for b in range(BINS):
                if local[b]:
                    yield from shared.add(ctx, b, int(local[b]),
                                          site="histogram:merge")
        yield from ctx.migrate_back()

    threads = [proc.spawn_thread(worker, i) for i in range(THREADS)]

    def main(ctx):
        start = ctx.now
        yield from proc.join_all(threads)
        elapsed = ctx.now - start
        hist = yield from shared.read(ctx)
        return elapsed, hist

    elapsed, hist = cluster.simulate(main, proc)
    assert hist.sum() == THREADS * ITEMS_PER_THREAD
    return elapsed, tracer


def main():
    print("== step 1: run the naive version under the fault profiler ==")
    slow_elapsed, tracer = run_variant(page_aligned=False)
    tracer.save_csv("trace.csv")  # the hand-off to `python -m repro.tools`
    print(f"naive version: {slow_elapsed / 1000:.2f} ms "
          f"({len(tracer)} trace events)\n")

    print("== step 2: what does the trace say? ==")
    analysis = TraceAnalysis(tracer)
    print(analysis.report(top=3))
    flagged = analysis.false_sharing_candidates(top=1)
    assert flagged, "the profiler must flag the histogram page"
    page = flagged[0]
    print(f"\n-> page {page.vpn:#x} is written from nodes "
          f"{list(page.writer_nodes)}: classic cross-node interference.\n")

    print("== step 3: apply the fix (page-aligned + local staging) ==")
    fast_elapsed, _ = run_variant(page_aligned=True)
    print(f"optimized version: {fast_elapsed / 1000:.2f} ms")
    print(f"speedup from the fix: {slow_elapsed / fast_elapsed:.1f}x")
    assert fast_elapsed < slow_elapsed
    print("OK")


if __name__ == "__main__":
    main()
