"""KMN — k-means clustering (§V, "simple" category).

Iteratively assigns points to the nearest of *k* centers and recomputes the
centers, until assignments settle or the iteration budget runs out.

* **initial** port: migration calls only.  The original layout bump-
  allocates the centroids, the reduction accumulators, and the
  converged-flag next to each other (one hot page), and every chunk of
  points updates the shared accumulators atomically and pokes the global
  changed-flag — "KMN updates a global flag and the clusters for points"
  (§V-C).  All of it ping-pongs between nodes.
* **optimized** port: centroids / accumulators / flag each get their own
  page, and each thread stages its partial sums locally, merging once per
  iteration under a mutex (§V-C's staging fix).
"""

from __future__ import annotations

from typing import Generator, Optional, Tuple

import numpy as np

from repro.apps import workloads
from repro.apps.common import AdaptationInfo, AppResult, finish, launch
from repro.params import SimParams
from repro.runtime import Barrier
from repro.runtime.array import alloc_array

#: distance evaluation cost per point per iteration; the paper clusters
#: against 100 centers, so each point is ~100 3-D distance evaluations
CPU_US_PER_POINT = 0.35
#: folding a point into the cluster accumulators (the per-point update
#: loop of the original program, which runs with the accumulator page hot)
UPDATE_US_PER_POINT = 0.4
CHUNK_POINTS = 4096
DIM = 3

ADAPTATION = AdaptationInfo(
    multithread_impl="pthread",
    initial_loc=2,
    optimized_loc=26,
    notes="1 line each for forward/backward migration; optimization "
    "page-aligns centroids/accumulators/flag and stages per-thread "
    "partial sums, merging once per iteration",
)


def sq_dist(pts: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distance of each point to each centre, ``(n, k)``; summed
    left to right, the order numpy reduces a short (< 8) axis in, so
    bit-identical to reducing the squared broadcast difference."""
    d = pts[:, 0, None] - centers[:, 0]
    out = d * d
    for j in range(1, pts.shape[1]):
        d = pts[:, j, None] - centers[:, j]
        out += d * d
    return out


def cluster_sums(pts: np.ndarray, assign: np.ndarray, k: int):
    """Member counts ``(k,)`` and coordinate sums ``(k, dim)`` per cluster,
    rows added in row order as a masked ``sum(axis=0)`` does, but from
    ``+0.0``: an all ``-0.0`` sum is ``+0.0``, the same to an accumulator
    that starts at ``+0.0``."""
    sums = np.empty((k, pts.shape[1]))
    for j in range(pts.shape[1]):
        sums[:, j] = np.bincount(assign, weights=pts[:, j], minlength=k)
    return np.bincount(assign, minlength=k), sums


def reference(
    points: np.ndarray, k: int, max_iters: int
) -> Tuple[np.ndarray, int]:
    """Single-threaded k-means with the same deterministic initialization
    (the first k points); returns (centroids, iterations_run)."""
    centers = points[:k].copy()
    assign = np.full(len(points), -1)
    for iteration in range(max_iters):
        # nearest centre a chunk at a time: the (points, k, DIM) broadcast
        # of the whole input is ~50x the input
        new_assign = np.empty(len(points), dtype=np.intp)
        for lo in range(0, len(points), CHUNK_POINTS):
            block = points[lo : lo + CHUNK_POINTS]
            new_assign[lo : lo + len(block)] = sq_dist(
                block, centers).argmin(axis=1)
        changed = bool((new_assign != assign).any())
        assign = new_assign
        counts, sums = cluster_sums(points, assign, k)
        nz = counts > 0
        centers[nz] = sums[nz] / counts[nz, None]  # the members' mean
        if not changed:
            return centers, iteration + 1
    return centers, max_iters


@workloads.memoised
def problem(
    n_points: int, k: int, max_iters: int, seed: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The seeded input points and the centroids a run must end on."""
    points = workloads.clustered_points(n_points, k, DIM, seed=seed)
    return points, reference(points, k, max_iters)[0]


def run(
    num_nodes: int = 1,
    variant: str = "initial",
    threads_per_node: int = 8,
    n_points: int = 500_000,
    k: int = 16,
    max_iters: int = 3,
    params: Optional[SimParams] = None,
    tracer=None,
    seed: Optional[int] = None,
    cluster=None,
) -> AppResult:
    """Run KMN; output is the final centroids, checked against the
    reference run with ``np.allclose`` (parallel reduction reorders float
    additions)."""
    job = launch("KMN", num_nodes, variant, threads_per_node, default_seed=11,
                 params=params, tracer=tracer, seed=seed, cluster=cluster)
    alloc, num_threads, optimized = job.alloc, job.num_threads, job.optimized

    points, expected = problem(n_points, k, max_iters, job.seed)

    # ---- layout ----------------------------------------------------------
    points_arr = alloc_array(alloc, np.float64, n_points * DIM, name="points",
                             page_aligned=True)
    aligned = optimized
    centroids = alloc_array(alloc, np.float64, k * DIM, name="centroids",
                            segment="globals", page_aligned=aligned)
    sums = alloc_array(alloc, np.float64, k * DIM, name="sums",
                       segment="globals", page_aligned=aligned)
    counts = alloc_array(alloc, np.int64, k, name="counts",
                         segment="globals", page_aligned=aligned)
    changed_flag = alloc_array(alloc, np.int64, 1, name="changed",
                               segment="globals", page_aligned=aligned)
    go = alloc_array(alloc, np.int64, max_iters, name="go",
                     segment="globals", page_aligned=aligned)
    barrier = Barrier(alloc, num_threads, name="kmn", page_aligned=aligned)

    part = (n_points + num_threads - 1) // num_threads

    # the original program works point-by-point: it re-reads the centroid
    # block continually while folding into the accumulators that share its
    # page, so on DeX the page is re-faulted after every invalidation.  The
    # optimized version snapshots the (page-aligned) centroids once per
    # iteration and processes large chunks.
    chunk_points = CHUNK_POINTS if optimized else CHUNK_POINTS // 16

    def body(ctx, wid: int) -> Generator:
        # with more workers than blocks the last ones get none, but still
        # meet every barrier
        lo = min(wid * part, n_points)
        hi = min(lo + part, n_points)
        prev_assign = np.full(hi - lo, -1, dtype=np.int64)
        for it in range(max_iters):
            centers = (yield from centroids.read(ctx, site="kmn:centers"))
            centers = centers.reshape(k, DIM)
            local_sums = np.zeros((k, DIM))
            local_counts = np.zeros(k, dtype=np.int64)
            local_changed = False
            pos = lo
            while pos < hi:
                if not optimized and pos != lo:
                    # re-read the centroid block: writes to the co-located
                    # accumulators keep invalidating our replica
                    centers = (
                        yield from centroids.read(ctx, site="kmn:centers")
                    ).reshape(k, DIM)
                take = min(chunk_points, hi - pos)
                raw = yield from points_arr.read(
                    ctx, pos * DIM, (pos + take) * DIM, site="kmn:points"
                )
                pts = raw.reshape(take, DIM)
                yield from ctx.compute(
                    cpu_us=take * CPU_US_PER_POINT,
                    mem_bytes=take * DIM * 8,
                )
                assign = sq_dist(pts, centers).argmin(axis=1)
                chunk_changed = bool(
                    (assign != prev_assign[pos - lo : pos - lo + take]).any()
                )
                prev_assign[pos - lo : pos - lo + take] = assign
                if optimized:
                    # the same per-point update work, but staged into the
                    # thread's private buffers (no shared page involved)
                    yield from ctx.compute(cpu_us=take * UPDATE_US_PER_POINT)
                    n_c, s = cluster_sums(pts, assign, k)
                    local_sums += s
                    local_counts += n_c
                    local_changed = local_changed or chunk_changed
                else:
                    # the original program folds point after point straight
                    # into the shared accumulators: the writes are spread
                    # through the whole per-point update window, so the
                    # accumulator page stays hot at this node and every
                    # theft by another node forces a refault mid-burst
                    slice_us = take * UPDATE_US_PER_POINT / k
                    counts_c, sums_c = cluster_sums(pts, assign, k)
                    for c in range(k):
                        n_c = int(counts_c[c])
                        if n_c:
                            s = sums_c[c]
                            for d in range(DIM):
                                yield from sums.add(ctx, c * DIM + d, s[d],
                                                    site="kmn:accumulate")
                            yield from counts.add(ctx, c, n_c,
                                                  site="kmn:accumulate")
                        yield from ctx.compute(cpu_us=slice_us)
                    if chunk_changed:
                        yield from changed_flag.set(ctx, 0, 1,
                                                    site="kmn:flag")
                pos += take
            if optimized:
                # merge once per iteration: back-to-back atomic folds, so
                # the accumulator pages change hands once per thread
                flat = local_sums.ravel()
                for idx in range(k * DIM):
                    if flat[idx]:
                        yield from sums.add(ctx, idx, flat[idx],
                                            site="kmn:merge")
                for c in range(k):
                    if local_counts[c]:
                        yield from counts.add(ctx, c, int(local_counts[c]),
                                              site="kmn:merge")
                if local_changed:
                    yield from changed_flag.set(ctx, 0, 1, site="kmn:flag")
            yield from barrier.wait(ctx)
            if wid == 0:
                all_sums = (yield from sums.read(ctx)).reshape(k, DIM)
                all_counts = yield from counts.read(ctx)
                new_centers = centers.copy()
                nz = all_counts > 0
                new_centers[nz] = all_sums[nz] / all_counts[nz, None]
                yield from centroids.write(ctx, 0, new_centers.ravel())
                yield from sums.write(ctx, 0, np.zeros(k * DIM))
                yield from counts.write(ctx, 0, np.zeros(k, dtype=np.int64))
                flag = yield from changed_flag.get(ctx, 0)
                yield from changed_flag.set(ctx, 0, 0)
                keep_going = 1 if (flag and it + 1 < max_iters) else 0
                yield from go.set(ctx, it, keep_going)
            yield from barrier.wait(ctx)
            cont = yield from go.get(ctx, it)
            if not cont:
                break

    def setup(ctx) -> Generator:
        yield from points_arr.write(ctx, 0, points.ravel())
        yield from centroids.write(ctx, 0, points[:k].ravel())

    def collect(ctx) -> Generator:
        final = (yield from centroids.read(ctx)).reshape(k, DIM)
        return final, bool(np.allclose(final, expected, rtol=1e-8, atol=1e-8))

    return finish(job, body, collect, setup)
