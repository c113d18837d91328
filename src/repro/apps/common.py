"""Shared scaffolding for the evaluation applications."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence

from repro.core import DexCluster, DexProcess
from repro.core.stats import DexStats
from repro.params import SimParams
from repro.runtime import MemoryAllocator

VARIANTS = ("unmodified", "initial", "optimized")


@dataclass
class AdaptationInfo:
    """Table I metadata: how invasive each port was.

    ``initial_loc`` counts the lines the first port adds/changes (the
    migration calls, §V-A); ``optimized_loc`` counts the additional lines
    the §IV optimizations touch.  ``regions`` is the number of converted
    parallel regions for OpenMP apps (None for pthread apps)."""

    multithread_impl: str  # "pthread" | "openmp"
    initial_loc: int
    optimized_loc: int
    regions: Optional[int] = None
    notes: str = ""


@dataclass
class AppResult:
    """Outcome of one application run."""

    app: str
    variant: str
    num_nodes: int
    num_threads: int
    elapsed_us: float        # the timed parallel section
    output: Any              # app-specific result for correctness checks
    stats: DexStats
    correct: Optional[bool] = None  # set when the app verified itself

    @property
    def throughput(self) -> float:
        """Inverse runtime; Figure 2's y-axis is throughput ratios."""
        return 1.0 / self.elapsed_us if self.elapsed_us > 0 else float("inf")


def workload_seed(params: Optional[SimParams], default: int) -> int:
    """Resolve an app's workload-generation seed.

    ``SimParams.seed`` wins when the caller pinned one (so a single knob
    reproduces the whole run: engine event order, chaos schedule, *and*
    input data); otherwise the app's calibrated historical default is used,
    keeping existing timings bit-identical when no seed is requested."""
    if params is not None and params.seed is not None:
        return params.seed
    return default


def check_variant(variant: str) -> str:
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    return variant


def plan_nodes(cluster: DexCluster, num_nodes: int) -> List[int]:
    """The node set an n-node run uses (origin first)."""
    if not 1 <= num_nodes <= cluster.num_nodes:
        raise ValueError(
            f"num_nodes must be in [1, {cluster.num_nodes}], got {num_nodes}"
        )
    return list(range(num_nodes))


def run_workers(
    cluster: DexCluster,
    proc: DexProcess,
    body: Callable[..., Generator],
    num_threads: int,
    nodes: Sequence[int],
    migrate: bool,
    args: tuple = (),
) -> float:
    """The common harness: spawn *num_threads* workers, each performing the
    paper's conversion (migrate out, run, migrate back) when *migrate*;
    block-assign workers to *nodes*.  Returns the elapsed simulated time of
    the parallel section."""
    from repro.runtime.openmp import node_for_worker

    start = cluster.engine.now

    def worker(ctx, wid: int) -> Generator:
        if migrate:
            yield from ctx.migrate(node_for_worker(wid, num_threads, list(nodes)))
        yield from body(ctx, wid, *args)
        if migrate:
            yield from ctx.migrate_back()

    threads = [
        proc.spawn_thread(worker, i, name=f"w{i}") for i in range(num_threads)
    ]

    def waiter(ctx) -> Generator:
        yield from proc.join_all(threads)

    cluster.simulate(waiter, proc)
    return cluster.engine.now - start


#: the paper's rack (§V); app clusters are never smaller
TESTBED_NODES = 8


def fresh_process(
    num_nodes: int,
    params: Optional[SimParams] = None,
    cluster: Optional[DexCluster] = None,
):
    """(cluster, process, allocator) for one app run.  The cluster always
    has at least ``TESTBED_NODES`` nodes; *num_nodes* only controls
    placement.  A tool that reads the run's tracer/lens/scope afterwards
    builds the cluster itself (from the same *params*) and passes it in."""
    if cluster is None:
        cluster = DexCluster(
            num_nodes=max(num_nodes, TESTBED_NODES), params=params
        )
    proc = cluster.create_process()
    alloc = MemoryAllocator(proc)
    return cluster, proc, alloc
