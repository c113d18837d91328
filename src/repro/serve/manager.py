"""The DexServe tenant manager: N tenants on one shared cluster.

One :class:`ServeManager` owns a :class:`~repro.core.cluster.DexCluster`
and drives the whole serving run inside a single ``simulate`` phase:

1. every tenant installs its working set in its own process (setup
   phases), then its worker pool migrates out and *warms* its nodes;
2. once all workers are warm, one open-loop injector per tenant fires
   the tenant's arrival process — requests are admitted (or rejected /
   shed / throttled) by the tenant's policy at their arrival node,
   regardless of how far behind the workers are;
3. workers drain their node's queue through their kind's request body; a
   bounded pool per node is the bulkhead that keeps one tenant's
   overload from stealing another's cores;
4. the manager's main thread ticks alongside, sweeping failure state
   when chaos is active (draining dead nodes' queues, rerouting or
   failing stranded work) until every arrival reached a terminal state;
   an injector that raised fails the run with its exception.

Everything is deterministic for a fixed seed: same seed, same arrival
times, same event interleaving, bit-identical SLO report.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from repro.core.cluster import DexCluster
from repro.core.errors import DexError
from repro.obs.metrics import MetricsRegistry
from repro.params import SimParams

from .arrivals import arrival_times
from .queueing import DONE, RUNNING, Request
from .report import build_report
from .tenant import Tenant, TenantSpec

#: manager sweep cadence; also bounds how stale the done-check can be
TICK_US = 250.0
#: Perfetto pid base for per-tenant scope tracks (above real node ids,
#: below the synthetic cluster track at 9999)
SERVE_PID_BASE = 9000


class ServeManager:
    """Build, run, and report one multi-tenant serving scenario."""

    def __init__(
        self,
        specs: Sequence[TenantSpec],
        num_nodes: int = 8,
        seed: int = 0,
        directory: Optional[str] = None,
        params: Optional[SimParams] = None,
        fail_stop: Optional[Tuple[int, float]] = None,
    ):
        """*seed* and *directory* are laid on *params* (default: the
        defaults), which configures everything else about the rack."""
        if not specs:
            raise ValueError("ServeManager needs at least one tenant")
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names: {names}")
        for spec in specs:
            bad = [n for n in spec.nodes if not 0 <= n < num_nodes]
            if bad:
                raise ValueError(
                    f"tenant {spec.name!r}: nodes {bad} outside the "
                    f"{num_nodes}-node cluster"
                )
        self.seed = seed
        # (node, offset_us): fail-stop `node` that long after serving
        # starts.  Serve-relative because warm-up time varies with the
        # tenant mix — an absolute crash time would land before serving
        # under one config and after it under another.
        self.fail_stop = fail_stop
        laid = {"seed": seed}
        if directory is not None:
            laid["directory"] = directory
        base = params if params is not None else SimParams()
        self.cluster = DexCluster(num_nodes, base.copy(**laid))
        self.registry = MetricsRegistry()
        self.tenants = [
            Tenant(spec, self.cluster, self.registry) for spec in specs
        ]
        self._serve_start_us = 0.0
        if self.cluster.scope is not None:
            self.cluster.scope.attach_serve(self)

    # -- the run ---------------------------------------------------------

    def run(self) -> Dict[str, Any]:
        """Execute the scenario; returns the SLO report dict.  The rack is
        closed however the run ends (tracer and scope stay readable:
        ``--trace-out``); a failed run's error propagates."""
        try:
            for tenant in self.tenants:
                tenant.install()
            mgr_proc = self.cluster.create_process(name="serve-mgr")
            self.cluster.simulate(self._main, mgr_proc)
            report = build_report(self)
            # a finished run has no live thread left, save the parked ones
            # a fail-stopped node leaves behind
            chaotic = self.cluster.chaos is not None
            for tenant in self.tenants:
                self.cluster.retire_process(tenant.proc, force=chaotic)
            self.cluster.retire_process(mgr_proc, force=chaotic)
        finally:
            self.cluster.close()  # force-retires whatever a failure left
        return report

    def _main(self, ctx) -> Generator:
        engine = self.cluster.engine
        ready: List[Any] = []
        workers: List[Any] = []
        for tenant in self.tenants:
            for node_idx, node in enumerate(tenant.spec.nodes):
                for w in range(tenant.spec.workers_per_node):
                    ev = engine.event(
                        name=f"{tenant.spec.name}.w{node_idx}.{w}.ready")
                    ready.append(ev)
                    workers.append(tenant.proc.spawn_thread(
                        self._worker, tenant, node,
                        (node, node_idx * tenant.spec.workers_per_node + w),
                        ev, name=f"serve-{tenant.spec.name}-n{node}w{w}",
                    ))
        # Wait for every worker to *settle* — warm (ready fired) or dead
        # (its node fail-stopped mid-migrate, its sim process was failed
        # by recovery, ...).  A plain all_of(ready) would park forever on
        # a worker chaos killed before it could warm.
        while not all(
            ev.triggered or not th.alive or th.failed is not None
            for ev, th in zip(ready, workers)
        ):
            yield TICK_US
            self._sweep_failures()
        self._serve_start_us = engine.now
        if self.fail_stop is not None and self.cluster.chaos is not None:
            node, offset = self.fail_stop
            engine._schedule_at(
                engine.now + offset, self._fail_stop_now, node)
        injectors = [engine.process(self._inject(tenant, engine.now),
                                    name=f"inject.{tenant.spec.name}")
                     for tenant in self.tenants]

        while not self._done():
            yield TICK_US
            self._sweep_failures()
            for injector in injectors:
                if injector.triggered and not injector.ok:
                    # its arrivals will never come: fail the run, not hang
                    raise injector._exc

        for tenant in self.tenants:
            tenant.stop = True
            tenant.release_all_waiters()
        # same settle-or-die logic on the way out: never join a worker
        # that chaos may still kill under us
        while any(th.alive and th.failed is None for th in workers):
            yield TICK_US
            self._sweep_failures()

    def _fail_stop_now(self, node: int) -> None:
        chaos = self.cluster.chaos
        if not chaos.is_fenced(node):
            chaos.crash(node, "serve fail-stop")

    def _done(self) -> bool:
        return all(
            t.injection_done and t.accounted() >= t.spec.curve.requests
            for t in self.tenants
        )

    # -- workers ---------------------------------------------------------

    def _worker(self, ctx, tenant: Tenant, node: int,
                wkey: Tuple[int, int], ready: Any) -> Generator:
        engine = self.cluster.engine
        queue = tenant.queues[node]
        try:
            yield from ctx.migrate(node)
            yield from tenant.warm(ctx)
        except DexError:
            # the node died before this worker came up; the failure sweep
            # reroutes its queue, and settling (not warming) unblocks the
            # manager's start barrier
            if not ready.triggered:
                ready.succeed()
            return
        ready.succeed()
        while True:
            if tenant.stop or tenant.proc.failed is not None:
                break
            request = queue.take()
            if request is None:
                yield queue.wait_token()
                continue
            request.status = RUNNING
            request.start_us = engine.now
            tenant.running[wkey] = request
            try:
                result = yield from tenant.execute(ctx, request)
            except DexError:
                # the DSM op died under us (node failure mid-request);
                # the request fails, the worker survives unless its whole
                # process was failed
                if request.status == RUNNING:
                    tenant.fail(request, engine.now)
                tenant.running.pop(wkey, None)
                if tenant.proc.failed is not None:
                    break
                continue
            request.status = DONE
            request.finish_us = engine.now
            tenant.running.pop(wkey, None)
            tenant.on_complete(request, result)
        try:
            yield from ctx.migrate_back()
        except DexError:
            pass  # going home through a broken fabric is best-effort

    # -- open-loop injection ---------------------------------------------

    def _inject(self, tenant: Tenant, t0: float) -> Generator:
        """One tenant's client population: fire every arrival at its
        precomputed absolute time, never waiting for completions."""
        engine = self.cluster.engine
        times = arrival_times(tenant.spec.curve, seed=tenant.spec.seed)
        for rid in range(len(times)):
            delay = t0 + float(times[rid]) - engine.now
            if delay > 0.0:
                yield delay
            self._admit(tenant, rid, engine.now)
        tenant.injection_done = True

    def _admit(self, tenant: Tenant, rid: int, now: float) -> None:
        tenant.count("injected")
        lo, hi = tenant.request_span(rid)
        live = tenant.live_nodes(self.cluster.chaos)
        if tenant.proc.failed is not None or not live:
            tenant.fail(Request(rid, tenant.spec.name, -1, now, lo, hi), now)
            return
        node = live[rid % len(live)]
        request = Request(rid, tenant.spec.name, node, now, lo, hi)
        tenant.count_decision(request, tenant.policy.decide(
            tenant.queues[node], request, now))

    # -- failure sweep ----------------------------------------------------

    def _sweep_failures(self) -> None:
        chaos = self.cluster.chaos
        if chaos is None:
            return
        now = self.cluster.engine.now
        for tenant in self.tenants:
            if tenant.proc.failed is not None and not tenant.dead:
                # the whole tenant is gone: everything queued or running
                # fails with it
                tenant.dead = True
                for queue in tenant.queues.values():
                    for request in queue.drain():
                        tenant.fail(request, now)
                for wkey, request in list(tenant.running.items()):
                    if request.status == RUNNING:
                        tenant.fail(request, now)
                    tenant.running.pop(wkey, None)
                tenant.release_all_waiters()
                continue
            dead_nodes = {
                n for n in tenant.spec.nodes if chaos.is_fenced(n)
            }
            for node in sorted(dead_nodes):
                queue = tenant.queues[node]
                stranded = queue.drain()
                live = tenant.live_nodes(chaos)
                for request in stranded:
                    if live:
                        target = live[request.rid % len(live)]
                        request.node = target
                        tenant.count("rerouted")
                        tenant.count_decision(request, tenant.policy.decide(
                            tenant.queues[target], request, now),
                            rerouted=True)
                    else:
                        tenant.fail(request, now)
                queue.release_waiters()
                for wkey, request in list(tenant.running.items()):
                    if wkey[0] == node and request.status == RUNNING:
                        tenant.fail(request, now)
                        tenant.running.pop(wkey, None)

    # -- DexScope feed -----------------------------------------------------

    def scope_series(self):
        """Per-tenant time-series points for the scope sampler: queue
        depth, in-flight work, and cumulative admission decisions.  Read
        -only; called on the sampling grid only when the scope is on."""
        out = []
        for idx, tenant in enumerate(self.tenants):
            pid = SERVE_PID_BASE + idx
            name = tenant.spec.name
            track = f"tenant {name} (DexServe)"
            counts = tenant.counts()
            out.append((f"serve.{name}.queue_depth", float(tenant.backlog()),
                        "mean", pid, track))
            out.append((f"serve.{name}.inflight", float(len(tenant.running)),
                        "mean", pid, track))
            for what in ("admitted", "rejected", "throttled", "shed",
                         "completed", "failed"):
                out.append((f"serve.{name}.{what}", float(counts[what]),
                            "last", pid, track))
        return out
