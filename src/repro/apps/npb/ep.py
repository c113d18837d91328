"""EP — the NPB embarrassingly-parallel kernel.

Generates pairs of uniform deviates, accepts those inside the unit circle,
transforms them into Gaussian pairs (Marsaglia polar method), and
histograms the accepted pairs by ``max(|x|, |y|)`` annulus — the
verification NPB itself uses.  One parallel region; the only shared state
is the final 10-bin histogram and the sum accumulators.

EP is the paper's best case: it scaled linearly in its *initial* port
(2 added lines).  The optimization (page-aligning the result bins) barely
matters because the shared page is touched once per thread.
"""

from __future__ import annotations

from typing import Generator, Optional, Tuple

import numpy as np

from repro.apps import workloads
from repro.apps.common import AdaptationInfo, AppResult, finish, launch
from repro.params import SimParams
from repro.runtime.array import alloc_array

#: generating + transforming one pair
CPU_US_PER_PAIR = 0.2
#: work is split into fixed blocks so results are thread-count independent
N_BLOCKS = 256
N_BINS = 10

ADAPTATION = AdaptationInfo(
    multithread_impl="openmp",
    initial_loc=2,
    optimized_loc=4,
    regions=1,
    notes="one OpenMP region: one line each for forward/backward "
    "migration; optimization page-aligns the result histogram",
)


def _block_histogram(block: int, pairs: int, seed: int) -> Tuple[np.ndarray, float, float]:
    """Deterministic per-block computation (identical for reference and
    distributed runs regardless of thread count)."""
    rng = np.random.default_rng(seed * 100_003 + block)
    x = rng.uniform(-1.0, 1.0, pairs)
    y = rng.uniform(-1.0, 1.0, pairs)
    t = x * x + y * y
    ok = (t <= 1.0) & (t > 0.0)
    factor = np.sqrt(-2.0 * np.log(t[ok]) / t[ok])
    gx, gy = x[ok] * factor, y[ok] * factor
    annulus = np.minimum(np.maximum(np.abs(gx), np.abs(gy)).astype(np.int64),
                         N_BINS - 1)
    hist = np.bincount(annulus, minlength=N_BINS)
    return hist, float(gx.sum()), float(gy.sum())


@workloads.memoised
def reference(n_pairs: int, seed: int) -> np.ndarray:
    pairs_per_block = n_pairs // N_BLOCKS
    total = np.zeros(N_BINS, dtype=np.int64)
    for block in range(N_BLOCKS):
        hist, _, _ = _block_histogram(block, pairs_per_block, seed)
        total += hist
    return total


def run(
    num_nodes: int = 1,
    variant: str = "initial",
    threads_per_node: int = 8,
    n_pairs: int = 1_200_000,
    params: Optional[SimParams] = None,
    tracer=None,
    seed: Optional[int] = None,
    cluster=None,
) -> AppResult:
    """Run EP; output is the 10-bin annulus histogram."""
    job = launch("EP", num_nodes, variant, threads_per_node, default_seed=19,
                 params=params, tracer=tracer, seed=seed, cluster=cluster)
    alloc, num_threads, optimized, seed = (
        job.alloc, job.num_threads, job.optimized, job.seed)

    expected = reference(n_pairs, seed)
    pairs_per_block = n_pairs // N_BLOCKS

    bins = alloc_array(alloc, np.int64, N_BINS, name="bins",
                       segment="globals", page_aligned=optimized)
    sums = alloc_array(alloc, np.float64, 2, name="sums",
                       segment="globals", page_aligned=optimized)

    def body(ctx, wid: int) -> Generator:
        local = np.zeros(N_BINS, dtype=np.int64)
        sx = sy = 0.0
        for block in range(wid, N_BLOCKS, num_threads):
            yield from ctx.compute(
                cpu_us=pairs_per_block * CPU_US_PER_PAIR,
                mem_bytes=pairs_per_block * 16,
            )
            hist, bx, by = _block_histogram(block, pairs_per_block, seed)
            local += hist
            sx += bx
            sy += by
        # fold the thread's results into the shared verification state
        for b in range(N_BINS):
            if local[b]:
                yield from bins.add(ctx, b, int(local[b]), site="ep:bins")
        yield from sums.add(ctx, 0, sx, site="ep:sums")
        yield from sums.add(ctx, 1, sy, site="ep:sums")

    def collect(ctx) -> Generator:
        hist = yield from bins.read(ctx)
        return hist, bool((hist == expected).all())

    return finish(job, body, collect)
