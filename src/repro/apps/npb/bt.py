"""BT — NPB block-tridiagonal solver, modelled as a 15-region-per-iteration
Jacobi sweep over a block-partitioned grid with halo exchange.

The paper converted BT's 15 OpenMP parallel regions (Table I).  Its two
DeX pathologies, both fixed in the optimized variant (§V-C):

* "NPB applications continually read global parameters, especially
  variables containing for-loop ranges of parallel regions [...] read-only
  after the initial setup but co-located with other global variables that
  are frequently updated" — here the loop-range block shares a page with
  the residual accumulator every thread updates and with the master's
  per-region bookkeeping; the optimized variant moves the read-only
  parameters to their own page.
* "in BT, child threads in a number of parallel regions read their
  parent's stack variables" — here every worker reads two values from the
  master's stack page each region while the master keeps writing that page
  between regions; the optimized variant passes them as arguments.
"""

from __future__ import annotations

from typing import Generator, Optional, Tuple

import numpy as np

from repro.apps import workloads
from repro.apps.common import AdaptationInfo, AppResult, finish, launch
from repro.apps.npb.common import region_body
from repro.params import SimParams
from repro.runtime.array import alloc_array

#: one stencil update (BT does heavy 5x5 block work per cell)
CPU_US_PER_CELL = 0.03
REGIONS_PER_ITER = 15

ADAPTATION = AdaptationInfo(
    multithread_impl="openmp",
    initial_loc=38,
    optimized_loc=61,
    regions=REGIONS_PER_ITER,
    notes="15 OpenMP regions converted at ~2.5 LoC each; optimization "
    "separates read-only loop parameters from mutated globals and passes "
    "parent-stack variables as arguments",
)


def reference(grid: np.ndarray, n_passes: int) -> np.ndarray:
    a = grid.copy()
    for _ in range(n_passes):
        b = a.copy()
        b[1:-1] = (a[:-2] + a[1:-1] + a[2:]) / 3.0
        a = b
    return a


@workloads.memoised
def problem(
    grid_cells: int, n_passes: int, seed: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The seeded initial grid and the grid a run must end on."""
    grid0 = np.random.default_rng(seed).uniform(0.0, 1.0, grid_cells)
    return grid0, reference(grid0, n_passes)


def run(
    num_nodes: int = 1,
    variant: str = "initial",
    threads_per_node: int = 8,
    grid_cells: int = 262_144,
    iters: int = 3,
    params: Optional[SimParams] = None,
    tracer=None,
    seed: Optional[int] = None,
    cluster=None,
) -> AppResult:
    """Run BT; output is the final grid (checked against the reference
    Jacobi sweep) and the accumulated residual."""
    job = launch("BT", num_nodes, variant, threads_per_node, default_seed=23,
                 params=params, tracer=tracer, seed=seed, cluster=cluster)
    alloc, num_threads, optimized = job.alloc, job.num_threads, job.optimized
    n_regions = REGIONS_PER_ITER * iters

    grid0, expected = problem(grid_cells, n_regions, job.seed)

    # double-buffered grids; optimized page-aligns each thread's block so
    # partition edges do not share pages
    grids = [
        alloc_array(alloc, np.float64, grid_cells, name=f"grid{i}",
                    page_aligned=True)
        for i in range(2)
    ]
    if optimized:
        part = ((grid_cells // num_threads + 511) // 512) * 512
    else:
        part = (grid_cells + num_threads - 1) // num_threads

    # the hot globals page (initial): loop params + residual + the master's
    # per-region bookkeeping all together; optimized splits them up
    loop_params = alloc_array(alloc, np.int64, 4, name="loop_params",
                              segment="globals", page_aligned=optimized)
    residual = alloc_array(alloc, np.float64, 1, name="residual",
                           segment="globals", page_aligned=False)
    bookkeeping = alloc_array(alloc, np.int64, 4, name="region_counter",
                              segment="globals", page_aligned=False)
    # the master's stack frame holding the per-region shared variables the
    # children read in the initial port (§IV-B's stack false sharing)
    master_stack = alloc.alloc_global(64, tag="stack:master")
    # optimized: per-thread residual staging (an OpenMP reduction), folded
    # into the shared accumulator once at the very end, at the origin
    staged_res = [0.0] * num_threads

    def region_fn(ctx, wid: int, region: int) -> Generator:
        lo = min(wid * part, grid_cells)
        hi = min(lo + part, grid_cells)
        if not optimized:
            # read the region arguments from the parent's stack page and
            # the loop ranges from the shared parameter page (which the
            # residual updates below keep invalidating)
            yield from ctx.read(master_stack, 16, site="bt:parent_stack")
            yield from loop_params.read(ctx, site="bt:params")
        if lo >= hi:
            return
        src = grids[region % 2]
        dst = grids[1 - region % 2]
        # read own block plus one halo cell on each side
        rlo = max(lo - 1, 0)
        rhi = min(hi + 1, grid_cells)
        block = yield from src.read(ctx, rlo, rhi, site="bt:halo")
        if not optimized:
            # the inner loops keep consulting the loop-range variables
            yield from loop_params.read(ctx, site="bt:params")
        yield from ctx.compute(
            cpu_us=(hi - lo) * CPU_US_PER_CELL, mem_bytes=(hi - lo) * 16
        )
        new = block.copy()
        off = lo - rlo
        g0 = max(lo, 1)
        g1 = min(hi, grid_cells - 1)
        if g1 > g0:
            left = block[g0 - rlo - 1 : g1 - rlo - 1]
            mid = block[g0 - rlo : g1 - rlo]
            right = block[g0 - rlo + 1 : g1 - rlo + 1]
            new[g0 - rlo : g1 - rlo] = (left + mid + right) / 3.0
        yield from dst.write(ctx, lo, new[off : off + hi - lo],
                             site="bt:write")
        res = float(np.abs(new[off : off + hi - lo]
                           - block[off : off + hi - lo]).sum())
        if optimized:
            # staged reduction: fold locally, publish once at the end
            staged_res[wid] += res
            if region == n_regions - 1:
                yield from residual.add(ctx, 0, staged_res[wid],
                                        site="bt:residual")
        else:
            # fold the residual into the shared accumulator mid-region: on
            # the hot page this invalidates everyone's parameter replicas
            yield from residual.add(ctx, 0, res, site="bt:residual")

    def serial_fn(ctx, region: int) -> Generator:
        # master's serial section: bookkeeping writes that dirty the hot
        # page and the master's own stack frame, which children read
        yield from bookkeeping.set(ctx, 0, region, site="bt:master")
        if not optimized:
            yield from ctx.write(master_stack, region.to_bytes(16, "little"),
                                 site="bt:master_stack")

    def setup(ctx) -> Generator:
        yield from grids[0].write(ctx, 0, grid0)
        yield from grids[1].write(ctx, 0, grid0)
        yield from loop_params.write(
            ctx, 0, np.array([0, grid_cells, part, iters], dtype=np.int64)
        )

    def collect(ctx) -> Generator:
        final = yield from grids[n_regions % 2].read(ctx)
        res = yield from residual.get(ctx, 0)
        return float(res), bool(np.allclose(final, expected))

    body = region_body(job, n_regions, region_fn, serial_fn)
    return finish(job, body, collect, setup, migrate_around=False)
