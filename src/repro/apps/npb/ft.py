"""FT — NPB 3-D FFT kernel, modelled as row transforms + full transposes.

FT's structure is a sequence of per-dimension transforms separated by data
transposes; the transposes are all-to-all: every thread's output rows draw
from *every* input partition, so each transpose replicates essentially the
whole array across the nodes.  That traffic is inherent to the algorithm —
which is why FT, unlike BT, stays below single-machine performance even
after the §IV layout fixes remove the parameter-page false sharing.

7 OpenMP regions per iteration were converted (Table I); here the region
schedule per iteration is [row, row, T, row, row, T, row].
"""

from __future__ import annotations

from typing import Generator, Optional, Tuple

import numpy as np

from repro.apps import workloads
from repro.apps.common import AdaptationInfo, AppResult, finish, launch
from repro.apps.npb.common import region_body
from repro.params import SimParams
from repro.runtime.array import alloc_array

#: one butterfly-ish update per element
CPU_US_PER_CELL = 0.06
REGIONS_PER_ITER = 7
#: region kinds within one iteration
SCHEDULE = ("row", "row", "transpose", "row", "row", "transpose", "row")

ADAPTATION = AdaptationInfo(
    multithread_impl="openmp",
    initial_loc=20,
    optimized_loc=44,
    regions=REGIONS_PER_ITER,
    notes="7 OpenMP regions converted; optimization separates read-only "
    "parameters and stages the checksum reduction, but the all-to-all "
    "transpose traffic is inherent",
)


def _row_transform(m: np.ndarray) -> np.ndarray:
    return 0.9 * m + 0.1 * np.roll(m, -1, axis=1)


def reference(matrix: np.ndarray, n_iters: int) -> np.ndarray:
    m = matrix.copy()
    for _ in range(n_iters):
        for kind in SCHEDULE:
            if kind == "row":
                m = _row_transform(m)
            else:
                m = m.T.copy()
    return m


@workloads.memoised
def problem(
    rows: int, cols: int, iters: int, seed: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The seeded initial matrix and the matrix a run must end on."""
    matrix0 = np.random.default_rng(seed).uniform(0.0, 1.0, (rows, cols))
    return matrix0, reference(matrix0, iters)


def run(
    num_nodes: int = 1,
    variant: str = "initial",
    threads_per_node: int = 8,
    rows: int = 512,
    cols: int = 512,
    iters: int = 2,
    params: Optional[SimParams] = None,
    tracer=None,
    seed: Optional[int] = None,
    cluster=None,
) -> AppResult:
    """Run FT; output is the final matrix checksum, with the full matrix
    checked against the reference."""
    job = launch("FT", num_nodes, variant, threads_per_node, default_seed=29,
                 params=params, tracer=tracer, seed=seed, cluster=cluster)
    alloc, num_threads, optimized = job.alloc, job.num_threads, job.optimized
    n_regions = REGIONS_PER_ITER * iters
    schedule = [SCHEDULE[r % REGIONS_PER_ITER] for r in range(n_regions)]

    matrix0, expected = problem(rows, cols, iters, job.seed)
    # square matrices keep the row partitioning valid across transposes
    assert rows == cols, "FT model requires a square matrix"

    mats = [
        alloc_array(alloc, np.float64, rows * cols, name=f"mat{i}",
                    page_aligned=True)
        for i in range(2)
    ]
    row_part = (rows + num_threads - 1) // num_threads

    loop_params = alloc_array(alloc, np.int64, 4, name="loop_params",
                              segment="globals", page_aligned=optimized)
    checksum = alloc_array(alloc, np.float64, 1, name="checksum",
                           segment="globals", page_aligned=False)
    staged_sum = [0.0] * num_threads

    def region_fn(ctx, wid: int, region: int) -> Generator:
        rlo = min(wid * row_part, rows)
        rhi = min(rlo + row_part, rows)
        if not optimized:
            yield from loop_params.read(ctx, site="ft:params")
        if rlo >= rhi:
            return
        src = mats[region % 2]
        dst = mats[1 - region % 2]
        kind = schedule[region]
        if kind == "row":
            block = yield from src.read(ctx, rlo * cols, rhi * cols,
                                        site="ft:rows")
            block = block.reshape(rhi - rlo, cols)
            yield from ctx.compute(
                cpu_us=(rhi - rlo) * cols * CPU_US_PER_CELL,
                mem_bytes=(rhi - rlo) * cols * 16,
            )
            out = _row_transform(block)
        else:
            # transpose: our output rows are the input's columns rlo:rhi —
            # page-granular reads pull in (essentially) every input page
            gathered = np.empty((rhi - rlo, cols))
            chunk_rows = max(row_part, 64)
            for base in range(0, rows, chunk_rows):
                top = min(base + chunk_rows, rows)
                piece = yield from src.read(ctx, base * cols, top * cols,
                                            site="ft:transpose")
                piece = piece.reshape(top - base, cols)
                gathered[:, base:top] = piece[:, rlo:rhi].T
            yield from ctx.compute(
                cpu_us=(rhi - rlo) * cols * 0.005,
                mem_bytes=(rhi - rlo) * cols * 16,
            )
            out = gathered
        yield from dst.write(ctx, rlo * cols, out.ravel(), site="ft:write")
        part_sum = float(out.sum())
        if optimized:
            staged_sum[wid] += part_sum
            if region == n_regions - 1:
                yield from checksum.add(ctx, 0, staged_sum[wid],
                                        site="ft:checksum")
        else:
            yield from checksum.add(ctx, 0, part_sum, site="ft:checksum")

    def serial_fn(ctx, region: int) -> Generator:
        # master bookkeeping write on the (initial) hot parameter page
        if not optimized:
            yield from loop_params.write(
                ctx, 0, np.array([region, rows, cols, iters], dtype=np.int64)
            )
        else:
            yield from ctx.sleep(1.0)

    def setup(ctx) -> Generator:
        yield from mats[0].write(ctx, 0, matrix0.ravel())
        yield from mats[1].write(ctx, 0, matrix0.ravel())
        yield from loop_params.write(
            ctx, 0, np.array([0, rows, cols, iters], dtype=np.int64)
        )

    def collect(ctx) -> Generator:
        final = yield from mats[n_regions % 2].read(ctx)
        total = yield from checksum.get(ctx, 0)
        return float(total), bool(
            np.allclose(final.reshape(rows, cols), expected))

    body = region_body(job, n_regions, region_fn, serial_fn)
    return finish(job, body, collect, setup, migrate_around=False)
