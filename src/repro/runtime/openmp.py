"""OpenMP-style parallel regions for DeX (§V-A's conversion recipe).

The paper converts OpenMP applications by triggering thread migration at
the beginning and end of each parallel region: worker *i* of an ``8*n``
thread team runs on node ``i * n // num_threads``.  ``parallel_region``
packages that pattern: fork a team (:func:`spawn_team`, which the apps'
worker harness uses too), migrate each worker to its node, run the body,
migrate everyone back, join.

This is also where the paper's stack-argument optimization (§IV-B) is
modelled: with ``shared_on_stack=True`` the region behaves like unmodified
OpenMP — shared variables live on the forking thread's stack page, which
every worker reads while the parent keeps using its stack, a classic false
sharing pattern.  With ``shared_on_stack=False`` ("we modified the compiler
to automatically offload shared variables to global memory for the duration
of parallel regions") the shared block is copied to a page-aligned global
staging area first.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.process import DexProcess
    from repro.core.thread import DexThread, ThreadContext


def node_for_worker(worker: int, num_workers: int, nodes: Sequence[int]) -> int:
    """Block assignment of team member -> node (the paper's placement:
    consecutive workers fill a node before spilling to the next)."""
    if not 0 <= worker < num_workers:
        raise ValueError(f"worker {worker} out of team of {num_workers}")
    return nodes[worker * len(nodes) // num_workers]


def spawn_team(
    proc: "DexProcess",
    body: Callable[..., Generator],
    num_threads: int,
    nodes: Sequence[int],
    migrate: bool = True,
    args: tuple = (),
    prefix: str = "omp",
) -> List["DexThread"]:
    """Spawn the §V-A converted team: worker *i* (thread ``prefix + i``)
    runs ``body(ctx, i, *args)``, performing the paper's two added lines
    itself when *migrate* — a forward migration to its node as its first
    action and a backward migration as its last."""

    def worker(ctx: "ThreadContext", worker_id: int) -> Generator:
        if migrate:
            # the one-line conversion: popcorn_migrate(node) at region entry
            yield from ctx.migrate(node_for_worker(worker_id, num_threads, nodes))
        result = yield from body(ctx, worker_id, *args)
        if migrate:
            yield from ctx.migrate_back()
        return result

    return [proc.spawn_thread(worker, i, name=f"{prefix}{i}")
            for i in range(num_threads)]


def parallel_region(
    parent_ctx: "ThreadContext",
    body: Callable[..., Generator],
    num_threads: int,
    nodes: Optional[Sequence[int]] = None,
    args: tuple = (),
    migrate: bool = True,
) -> Generator:
    """Run ``body(ctx, worker_id, *args)`` on a :func:`spawn_team` of
    *num_threads* threads distributed over *nodes* (default: all nodes),
    then join.  Returns the list of body results in worker order."""
    proc = parent_ctx.proc
    if nodes is None:
        nodes = list(range(proc.cluster.num_nodes))
    team = spawn_team(proc, body, num_threads, nodes, migrate, args)
    return (yield from proc.join_all(team))
