"""BP — belief propagation on the Polymer engine.

Jacobi-style iterations: each vertex's new belief mixes its own previous
belief with the mean of its neighbours' (a loopy-BP-shaped update that is
exactly reproducible in numpy).  BP "continues accessing a large amount of
memory without locality" (§V-B): per iteration every thread streams its
partition's edge lists and gathers scattered neighbour beliefs, so the
kernel is memory-bandwidth-bound on one machine — the paper observed
under-utilized CPUs there and **super-linear** scaling (3.84x from 1 to 2
nodes) once DeX spread the footprint over more memory systems.  The
per-node working set entering the LLC model shrinks with the node count,
which is what produces that super-linearity here too.

* **initial**: migration calls + numa_alloc -> malloc; belief partitions
  are unaligned (boundary pages bounce every iteration) and each thread
  pokes the global convergence flag per chunk (§IV-C).
* **optimized**: page-aligned per-node belief partitions, locally staged
  convergence flags.
"""

from __future__ import annotations

from typing import Generator, Optional, Tuple

import numpy as np

from repro.apps import workloads
from repro.apps.common import AdaptationInfo, AppResult, finish, launch
from repro.apps.polymer.graph import edge_balanced_partitions, load_graph
from repro.params import SimParams
from repro.runtime import Barrier
from repro.runtime.array import alloc_array

#: arithmetic per edge (gather + mix)
CPU_US_PER_EDGE = 0.02
#: DRAM traffic per edge: a scattered gather touches a full cache line,
#: and the loopy-BP message state adds another line's worth
BYTES_PER_EDGE = 96
CONVERGE_EPS = 1e-9

ADAPTATION = AdaptationInfo(
    multithread_impl="pthread",
    initial_loc=12,
    optimized_loc=42,
    notes="migration calls plus numa_alloc_local -> malloc (§V-A); "
    "optimization packs per-node belief partitions page-aligned and "
    "stages the convergence flag locally",
)


def reference(
    indptr: np.ndarray, indices: np.ndarray, beliefs0: np.ndarray, iters: int
) -> np.ndarray:
    # beliefs are stored float32 (as Polymer does for big graphs); the
    # reference reproduces the same per-iteration rounding
    b = beliefs0.astype(np.float32)
    n = len(indptr) - 1
    deg = np.maximum(indptr[1:] - indptr[:-1], 1)
    for _ in range(iters):
        gathered = np.zeros(n)
        np.add.at(gathered, np.repeat(np.arange(n), indptr[1:] - indptr[:-1]),
                  b[indices].astype(np.float64))
        b = (0.5 * b.astype(np.float64) + 0.5 * gathered / deg).astype(
            np.float32
        )
    return b


@workloads.memoised
def problem(
    n_vertices: int, n_edges: int, iters: int, seed: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The seeded graph ``(indptr, indices)``, the initial beliefs and the
    beliefs a run must end on."""
    indptr, indices = workloads.rmat_graph(n_vertices, n_edges, seed=seed)
    beliefs0 = np.random.default_rng(seed + 1).uniform(0.0, 1.0,
                                                       len(indptr) - 1)
    return indptr, indices, beliefs0, reference(indptr, indices, beliefs0,
                                                iters)


def run(
    num_nodes: int = 1,
    variant: str = "initial",
    threads_per_node: int = 8,
    n_vertices: int = 65_536,
    n_edges: int = 1_000_000,
    iters: int = 5,
    params: Optional[SimParams] = None,
    tracer=None,
    seed: Optional[int] = None,
    cluster=None,
) -> AppResult:
    """Run BP; output is the final belief vector, checked against the
    reference (float64 math on both sides, so allclose is tight)."""
    job = launch("BP", num_nodes, variant, threads_per_node, default_seed=31,
                 params=params, tracer=tracer, seed=seed, cluster=cluster)
    alloc, num_threads, optimized = job.alloc, job.num_threads, job.optimized

    indptr, indices, beliefs0, expected = problem(n_vertices, n_edges, iters,
                                                  job.seed)
    n_vertices = len(indptr) - 1

    graph, edge_data = load_graph(alloc, indptr, indices)
    beliefs = [
        alloc_array(alloc, np.float32, n_vertices, name=f"beliefs{p}",
                    page_aligned=optimized)
        for p in range(2)
    ]
    flag = alloc_array(alloc, np.int64, 1, name="bp_flag",
                       segment="globals", page_aligned=optimized)
    barrier = Barrier(alloc, num_threads, name="bp", page_aligned=optimized)

    thread_parts = edge_balanced_partitions(indptr, num_threads)
    #: the hot footprint an n-node run spreads: edge lists (with their
    #: gather metadata) + both belief arrays, per node (drives the
    #: LLC-miss model in ctx.compute)
    hot_bytes = graph.indices.nbytes * 2 + 2 * beliefs[0].nbytes

    def body(ctx, wid: int) -> Generator:
        vlo, vhi = thread_parts[wid]
        for it in range(iters):
            src = beliefs[it % 2]
            dst = beliefs[1 - it % 2]
            if vhi > vlo:
                iptr = yield from graph.indptr.read(ctx, vlo, vhi + 1,
                                                    site="bp:indptr")
                elo, ehi = int(iptr[0]), int(iptr[-1])
                if ehi > elo:
                    edges = yield from graph.indices.read(
                        ctx, elo, ehi, site="bp:edges"
                    )
                else:
                    edges = np.empty(0, dtype=np.int64)
                # gather neighbour beliefs: scattered across the whole
                # array, so page granularity pulls in (almost) all of it
                all_b = yield from src.read(ctx, 0, n_vertices,
                                            site="bp:gather")
                n_my_edges = ehi - elo
                yield from ctx.compute(
                    cpu_us=n_my_edges * CPU_US_PER_EDGE,
                    mem_bytes=n_my_edges * BYTES_PER_EDGE,
                    working_set=hot_bytes / max(num_nodes, 1),
                )
                counts = (iptr[1:] - iptr[:-1]).astype(np.int64)
                deg = np.maximum(counts, 1)
                gathered = np.zeros(vhi - vlo)
                if n_my_edges:
                    np.add.at(
                        gathered,
                        np.repeat(np.arange(vhi - vlo), counts),
                        all_b[edges].astype(np.float64),
                    )
                mine = all_b[vlo:vhi].astype(np.float64)
                new = (0.5 * mine + 0.5 * gathered / deg).astype(np.float32)
                yield from dst.write(ctx, vlo, new, site="bp:scatter")
                changed = bool(
                    (np.abs(new.astype(np.float64) - mine) > CONVERGE_EPS).any()
                )
            else:
                changed = False
            if changed:
                if optimized:
                    # stage locally: publish once, at the last iteration
                    if it == iters - 1:
                        yield from flag.set(ctx, 0, 1, site="bp:flag")
                else:
                    # the original pokes the global flag as it goes
                    yield from flag.set(ctx, 0, 1, site="bp:flag")
            yield from barrier.wait(ctx)

    def setup(ctx) -> Generator:
        yield from graph.indptr.write(ctx, 0, indptr)
        if len(edge_data):
            yield from graph.indices.write(ctx, 0, edge_data)
        yield from beliefs[0].write(ctx, 0, beliefs0)

    def collect(ctx) -> Generator:
        final = yield from beliefs[iters % 2].read(ctx)
        return final, bool(np.allclose(final, expected, rtol=1e-5, atol=1e-6))

    return finish(job, body, collect, setup)
