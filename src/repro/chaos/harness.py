"""Run workloads under a chaos scenario and check they still finish right.

Two entry points:

* :func:`run_pagefault_micro` — a fixed-iteration two-node workload that
  exercises every request-class control message (page faults, invalidation
  ping-pong, migration both ways, delegation, VMA query/shrink), so a
  "drop each message type once" sweep has something to drop.  Correctness
  is exact: the shared counter must equal the iteration count.
* :func:`run_under_chaos` — any Figure-2 app under a scenario, with a
  fail-stop restart policy: when a run dies of :class:`NodeFailedError`
  the app is re-run on a fresh cluster (built from the same
  :class:`~repro.apps.common.RunSpec`) with the *same* scenario object.
  Rule state (``matched``/``fired``) is shared across attempts, so a crash
  that already fired stays consumed and the restarted run completes.

``python -m repro.chaos`` wraps both (see ``__main__.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional

from repro.apps.common import RunSpec
from repro.chaos import resolve_scenario
from repro.chaos.scenario import ChaosScenario
from repro.core import DexCluster
from repro.core.errors import NodeFailedError
from repro.params import SimParams
from repro.runtime import Barrier, MemoryAllocator


def _under(spec: RunSpec, scenario: Optional[ChaosScenario],
           sanitize: bool) -> RunSpec:
    """*spec* with the scenario (and the sanitizer) laid on its params."""
    base = spec.base if spec.base is not None else SimParams()
    if scenario is not None:
        base = base.copy(chaos_scenario=scenario)
    if sanitize:
        base = base.copy(sanitize="1")
    return replace(spec, base=base)


# ---------------------------------------------------------------------------
# the two-node pagefault micro


def run_pagefault_micro(
    spec: RunSpec,
    scenario: Optional[ChaosScenario] = None,
    *,
    sanitize: bool = True,
    iters: int = 40,
    cluster: Optional[DexCluster] = None,
) -> Dict[str, Any]:
    """Two threads hammer one shared counter — one at the origin, one
    migrated to node 1 — then rendezvous on a futex barrier; the remote
    thread also maps/touches/unmaps a scratch region so delegation and the
    eager VMA-shrink broadcast run too.  *spec* names the ``micro`` run
    (its directory, seed and base params).  Returns a result dict with
    ``ok`` (exact-count correctness), the chaos ``report`` (None when the
    subsystem is off), and the final sim time.  A caller that inspects the
    run afterwards (its tracer, say) passes the *cluster* it built from
    the same spec, scenario and sanitizer (``ValueError`` otherwise)."""
    if spec.app != "micro":
        raise ValueError(f"the pagefault micro runs 'micro', not {spec.app!r}")
    spec = _under(spec, scenario, sanitize)
    if cluster is None:
        cluster = spec.cluster()
    elif cluster.params != spec.params():
        raise ValueError("the cluster was not built from this spec, "
                         "scenario and sanitizer")
    proc = cluster.create_process()
    alloc = MemoryAllocator(proc)
    var = alloc.alloc_global(8, tag="chaos_micro")
    barrier = Barrier(alloc, 2, name="micro")
    expected = 2 * iters

    def remote(ctx):
        yield from ctx.migrate(1)
        # delegated mmap; the replica learns the VMA on first touch
        # (VMA_QUERY), and the delegated munmap triggers the origin's
        # eager VMA_SHRINK broadcast back to this node
        scratch = yield from ctx.mmap(4096, tag="scratch")
        yield from ctx.write_i64(scratch, 1, site="micro:scratch")
        for _ in range(iters):
            yield from ctx.atomic_add_i64(var, 1, site="micro:remote")
            yield from ctx.compute(cpu_us=0.2)
        yield from ctx.munmap(scratch, 4096)
        yield from barrier.wait(ctx)
        yield from ctx.migrate_back()
        return iters

    def local(ctx):
        for _ in range(iters):
            yield from ctx.atomic_add_i64(var, 1, site="micro:local")
            yield from ctx.compute(cpu_us=0.2)
        yield from barrier.wait(ctx)
        return iters

    t_remote = proc.spawn_thread(remote, name="remote")
    t_local = proc.spawn_thread(local, name="local")

    def main(ctx):
        yield from proc.join_all([t_remote, t_local])
        value = yield from ctx.read_i64(var)
        return value

    value = cluster.simulate(main, proc)
    return {
        "ok": value == expected,
        "value": value,
        "expected": expected,
        "elapsed_us": cluster.now,
        "report": cluster.chaos.report() if cluster.chaos is not None else None,
    }


# ---------------------------------------------------------------------------
# apps under chaos, with fail-stop restart


@dataclass
class ChaosRunReport:
    """Outcome of :func:`run_under_chaos`."""

    app: str
    variant: str
    num_nodes: int
    #: per-attempt outcome lines ("completed" or the failure diagnostic)
    attempts: List[str] = field(default_factory=list)
    #: the successful AppResult, or None if every attempt failed
    result: Optional[Any] = None
    #: the last attempt's controller report (injection/retry/lease counters)
    report: Optional[Dict[str, Any]] = None

    @property
    def completed(self) -> bool:
        return self.result is not None

    @property
    def correct(self) -> bool:
        """True when the app completed *and* verified its own output."""
        return self.result is not None and bool(self.result.correct)


def run_under_chaos(
    spec: RunSpec,
    scenario: Optional[ChaosScenario] = None,
    *,
    sanitize: bool = True,
    max_restarts: int = 1,
) -> ChaosRunReport:
    """Run one Figure-2 app *spec* under *scenario* (default: the spec's
    own, else an empty one); on fail-stop, restart on a fresh cluster up
    to *max_restarts* times (consumed crash rules do not re-fire).  The
    final attempt's exception propagates when the budget is exhausted, so
    an un-survivable scenario is loud, not silently wrong."""
    if spec.micro:
        raise ValueError(f"{spec.app!r} is not a Figure-2 app")
    if scenario is None:
        # resolved once: every attempt shares the rules' consumed state
        scenario = resolve_scenario(spec.params()) or ChaosScenario()
    spec = _under(spec, scenario, sanitize)
    outcome = ChaosRunReport(app=spec.app, variant=spec.variant,
                             num_nodes=spec.nodes)
    for attempt in range(max_restarts + 1):
        cluster = spec.cluster()
        try:
            outcome.result = spec.run(cluster=cluster)
        except NodeFailedError as err:
            outcome.attempts.append(f"attempt {attempt + 1}: {err}")
            outcome.report = err.chaos_report = cluster.chaos.report()
            if attempt >= max_restarts:
                raise
            continue
        outcome.attempts.append(f"attempt {attempt + 1}: completed")
        outcome.report = cluster.chaos.report()
        return outcome
    return outcome  # pragma: no cover - loop always returns or raises
