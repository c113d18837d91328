"""BFS — level-synchronous breadth-first search on the Polymer engine.

Per level, every thread scans its vertex partition's slice of the current
frontier, expands the active vertices' edges, and publishes discoveries.

* **initial** (libNUMA calls swapped for malloc, §V-A): discoveries are
  written straight into the shared next-frontier array and the shared
  distance array — cross-node scattered writes that bounce pages — and
  the global "frontier non-empty" flag is poked on every discovery batch
  (§IV-C's anti-pattern).
* **optimized** (§V-C): discoveries go to the discovering node's staging
  buffer; at the level barrier, one leader thread per node merges all
  staging slices for *its* vertex range, updates its distances locally,
  and builds the next frontier — Polymer's per-node design restored.

Either way the computed distances must equal the reference BFS exactly.
"""

from __future__ import annotations

from typing import Generator, List, Tuple

import numpy as np

from repro.apps import workloads
from repro.apps.common import AdaptationInfo, AppResult, Launch, finish
from repro.apps.polymer.engine import make_frontier_state
from repro.apps.polymer.graph import edge_balanced_partitions, load_graph
from repro.runtime import Barrier, MemoryAllocator
from repro.runtime.array import alloc_array

CPU_US_PER_EDGE = 0.05
CPU_US_PER_VERTEX = 0.005
MAX_LEVELS = 48

ADAPTATION = AdaptationInfo(
    multithread_impl="pthread",
    initial_loc=11,
    optimized_loc=38,
    notes="migration calls plus numa_alloc_local -> malloc replacement "
    "(§V-A); optimization restores page-aligned per-node frontier and "
    "distance structures and stages the non-empty flag locally",
)


@workloads.memoised
def problem(
    n_vertices: int, n_edges: int, source: int, seed: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The seeded graph ``(indptr, indices)`` and the distances from
    *source* a run must compute."""
    indptr, indices = workloads.rmat_graph(n_vertices, n_edges, seed=seed)
    return indptr, indices, workloads.bfs_reference(indptr, indices, source)


#: the calibrated input seed, unless the spec or SimParams names one
INPUT_SEED = 17


def run(
    job: Launch,
    n_vertices: int = 65_536,
    n_edges: int = 260_000,
    source: int = 0,
) -> AppResult:
    """Run BFS; output is the distance vector, checked against the
    single-threaded reference."""
    alloc, num_threads, optimized = job.alloc, job.num_threads, job.optimized
    num_nodes, threads_per_node = job.spec.nodes, job.spec.threads_per_node

    indptr, indices, expected = problem(n_vertices, n_edges, source,
                                        job.seed)
    n_vertices = len(indptr) - 1  # rmat may round up to a power of two

    graph, edge_data = load_graph(alloc, indptr, indices)
    dist = alloc_array(alloc, np.int64, n_vertices, name="dist",
                       page_aligned=optimized)
    state = make_frontier_state(alloc, n_vertices, num_nodes, MAX_LEVELS,
                                optimized)
    barrier = Barrier(alloc, num_threads, name="bfs", page_aligned=optimized)

    thread_parts = edge_balanced_partitions(indptr, num_threads)
    # contiguous per-node ranges (threads are block-assigned to nodes)
    node_ranges = []
    for k in range(num_nodes):
        first = k * threads_per_node
        last = first + threads_per_node - 1
        node_ranges.append((thread_parts[first][0], thread_parts[last][1]))

    def body(ctx, wid: int) -> Generator:
        vlo, vhi = thread_parts[wid]
        my_node = wid // threads_per_node
        nlo, nhi = node_ranges[my_node]
        is_leader = wid % threads_per_node == 0
        for level in range(MAX_LEVELS):
            cur = state.frontier(level)
            nxt = state.next_frontier(level)
            discovered_any = False
            if vhi > vlo:
                mine = yield from cur.read(ctx, vlo, vhi, site="bfs:frontier")
                active = np.nonzero(mine)[0] + vlo
            else:
                active = np.empty(0, dtype=np.int64)
            if active.size:
                iptr = yield from graph.indptr.read(ctx, vlo, vhi + 1,
                                                    site="bfs:indptr")
                elo, ehi = int(iptr[0]), int(iptr[-1])
                if ehi > elo:
                    edges = yield from graph.indices.read(
                        ctx, elo, ehi, site="bfs:edges"
                    )
                else:
                    edges = np.empty(0, dtype=np.int64)
                starts = iptr[active - vlo] - elo
                stops = iptr[active - vlo + 1] - elo
                n_active_edges = int((stops - starts).sum())
                yield from ctx.compute(
                    cpu_us=n_active_edges * CPU_US_PER_EDGE
                    + len(active) * CPU_US_PER_VERTEX,
                    mem_bytes=n_active_edges * 16,
                )
                if n_active_edges:
                    nbrs = np.unique(
                        np.concatenate(
                            [edges[a:b] for a, b in zip(starts, stops)]
                        )
                    )
                else:
                    nbrs = np.empty(0, dtype=np.int64)
                if optimized:
                    # push into this node's staging buffer (page-aligned,
                    # only this node's threads write it)
                    stage = state.staging[my_node]
                    for v in nbrs:
                        yield from ctx.write(stage.addr + int(v), b"\x01",
                                             site="bfs:stage")
                    discovered_any = bool(nbrs.size)
                else:
                    # check and write the shared distance array directly,
                    # publish into the shared next frontier, poke the flag
                    page = job.cluster.params.page_size
                    per = page // 8
                    newly: List[int] = []
                    for pg in np.unique(nbrs // per):
                        base = int(pg) * per
                        raw = yield from ctx.read(
                            dist.addr + base * 8,
                            min(per, n_vertices - base) * 8,
                            site="bfs:dist_check",
                        )
                        vals = np.frombuffer(raw, dtype=np.int64)
                        local = nbrs[(nbrs >= base) & (nbrs < base + per)]
                        newly.extend(
                            int(v) for v in local if vals[v - base] < 0
                        )
                    for i, v in enumerate(newly):
                        yield from dist.set(ctx, v, level + 1,
                                            site="bfs:dist_write")
                        yield from ctx.write(nxt.addr + v, b"\x01",
                                             site="bfs:next")
                        if i % 16 == 0:
                            # "rather than blindly checking and setting the
                            # flag..." (§IV-C) — the original sets the
                            # global flag as it discovers
                            yield from ctx.write_i64(state.flag_addr, 1,
                                                     site="bfs:flag")
                    discovered_any = bool(newly)
            yield from barrier.wait(ctx)
            # ---- merge / level bookkeeping --------------------------------
            if optimized and is_leader and nhi > nlo:
                union = np.zeros(nhi - nlo, dtype=np.uint8)
                for k in range(num_nodes):
                    part = yield from state.staging[k].read(
                        ctx, nlo, nhi, site="bfs:merge"
                    )
                    if part.any():
                        union |= part
                        yield from state.staging[k].write(
                            ctx, nlo, np.zeros(nhi - nlo, dtype=np.uint8),
                            site="bfs:merge_clear",
                        )
                my_dist = yield from dist.read(ctx, nlo, nhi,
                                               site="bfs:merge")
                newly_mask = (union > 0) & (my_dist < 0)
                count = int(newly_mask.sum())
                if count:
                    my_dist[newly_mask] = level + 1
                    yield from dist.write(ctx, nlo, my_dist,
                                          site="bfs:merge")
                next_bytes = newly_mask.astype(np.uint8)
                yield from nxt.write(ctx, nlo, next_bytes, site="bfs:merge")
                yield from ctx.compute(
                    cpu_us=(nhi - nlo) * 0.002 * num_nodes
                )
                if count:
                    yield from state.go.add(ctx, level, count,
                                            site="bfs:go")
            elif not optimized:
                # clear my slice of the dying frontier for reuse
                if vhi > vlo:
                    yield from cur.write(
                        ctx, vlo, np.zeros(vhi - vlo, dtype=np.uint8),
                        site="bfs:clear",
                    )
                if wid == 0:
                    flag = yield from ctx.read_i64(state.flag_addr)
                    if flag:
                        yield from state.go.add(ctx, level, 1)
                        yield from ctx.write_i64(state.flag_addr, 0)
            yield from barrier.wait(ctx)
            keep_going = yield from state.go.get(ctx, level, site="bfs:go")
            if not keep_going:
                break

    def setup(ctx) -> Generator:
        yield from graph.indptr.write(ctx, 0, indptr)
        if len(edge_data):
            yield from graph.indices.write(ctx, 0, edge_data)
        yield from dist.write(ctx, 0, np.full(n_vertices, -1, dtype=np.int64))
        yield from dist.set(ctx, source, 0)
        yield from ctx.write(state.current[0].addr + source, b"\x01")

    def collect(ctx) -> Generator:
        result = yield from dist.read(ctx)
        return result, bool((result == expected).all())

    return finish(job, body, collect, setup)
