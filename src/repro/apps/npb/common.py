"""The OpenMP-conversion pattern shared by BT, EP, and FT (§V-A).

An NPB kernel is a sequence of parallel regions separated by serial master
sections.  On DeX, "we triggered thread migration at the beginning and end
of the OpenMP parallel regions": every worker migrates to its node at
region entry and returns to the origin at region exit.  Crucially the
region-end synchronization then happens **at the origin**, where the
barrier words and futexes are local — which is why repeated cheap
migrations (Table II's 236 us second migration) beat keeping threads
remote across the serial sections.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from repro.apps.common import Launch
from repro.runtime import Barrier
from repro.runtime.openmp import node_for_worker


def region_body(
    job: Launch,
    n_regions: int,
    region_fn: Callable[..., Generator],
    serial_fn: Optional[Callable[..., Generator]] = None,
) -> Callable[..., Generator]:
    """The worker body that runs ``region_fn(ctx, wid, region)`` for each
    region in sequence, with per-region out-and-back migration and
    origin-local barriers; ``serial_fn(ctx, region)`` runs on the master
    between regions.  Migration is handled per region here, so the body is
    finished with ``migrate_around=False``."""
    num_threads = job.num_threads
    barrier = Barrier(job.alloc, num_threads, name="omp_join",
                      page_aligned=True)

    def body(ctx, wid: int) -> Generator:
        for region in range(n_regions):
            if job.migrate:
                yield from ctx.migrate(
                    node_for_worker(wid, num_threads, job.nodes)
                )
            yield from region_fn(ctx, wid, region)
            if job.migrate:
                yield from ctx.migrate_back()
            # implicit OpenMP region-end barrier — at the origin, so cheap
            yield from barrier.wait(ctx)
            if wid == 0 and serial_fn is not None:
                yield from serial_fn(ctx, region)
            yield from barrier.wait(ctx)

    return body
