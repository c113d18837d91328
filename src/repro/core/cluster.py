"""The top-level public API: a simulated rack running DeX.

Typical usage::

    from repro import DexCluster

    cluster = DexCluster(num_nodes=4)
    proc = cluster.create_process()

    def worker(ctx, node, out_addr):
        yield from ctx.migrate(node)            # ship this thread out
        yield from ctx.compute(cpu_us=100.0)    # work with remote cores
        yield from ctx.write_i64(out_addr, 42)  # through shared memory
        yield from ctx.migrate_back()

    threads = [proc.spawn_thread(worker, n, 0x10000000 + 8 * n)
               for n in range(4)]

    def main(ctx):
        yield from proc.join_all(threads)

    cluster.simulate(main, proc)
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Generator, List, Optional

from repro.chaos import ChaosController, resolve_scenario
from repro.core.errors import DexError
from repro.core.process import DexProcess
from repro.net.fabric import Network
from repro.net.messages import Message, MsgType
from repro.obs.lens import DexLens
from repro.obs.scope import DexScope
from repro.obs.tracing import Tracer
from repro.params import SimParams, resolve_switch
from repro.sim import Engine, FairShareResource, Resource


def _stray(msg: Message) -> Generator:
    """The handler of a message for a pid that is not registered: it fails
    its process, where the message's own handler would have run."""
    raise DexError(f"message for unknown process: {msg!r}")
    yield 0.0  # never reached: it only makes this a generator


class DexNode:
    """One machine of the rack: CPU cores + a DRAM bandwidth domain."""

    def __init__(self, engine: Engine, node_id: int, params: SimParams):
        self.node_id = node_id
        self.cores = Resource(engine, params.cores_per_node, name=f"n{node_id}.cores")
        self.dram = FairShareResource(
            engine,
            params.dram_bandwidth,
            contention=params.dram_contention_model(),
            name=f"n{node_id}.dram",
        )


class DexCluster:
    """A rack of nodes connected by the simulated InfiniBand fabric, with
    the DeX kernel extension 'loaded' on every node."""

    def __init__(
        self,
        num_nodes: int = 8,
        params: Optional[SimParams] = None,
        directory: Optional[str] = None,
        trace: Optional[Any] = None,
        chaos: Optional[Any] = None,
    ):
        self.params = params if params is not None else SimParams()
        if directory is not None:
            # convenience knob: select the coherence-directory backend
            # ("origin" | "sharded") without hand-building SimParams
            self.params = self.params.copy(directory=directory)
        if trace is not None:
            # convenience knob: DexCluster(trace=True) / trace="spans"
            self.params = self.params.copy(
                trace=trace if isinstance(trace, str) else ("1" if trace else "")
            )
        if chaos is not None:
            # convenience knob: DexCluster(chaos=ChaosScenario(...)) or
            # chaos="scenario.json" / chaos=True
            if isinstance(chaos, str):
                self.params = self.params.copy(chaos=chaos)
            elif chaos is True:
                self.params = self.params.copy(chaos="on")
            else:
                self.params = self.params.copy(chaos_scenario=chaos)
        scenario = resolve_scenario(self.params)
        seed = self.params.seed
        if seed is None and scenario is not None and scenario.seed is not None:
            seed = scenario.seed
        self.engine = Engine(seed=0 if seed is None else seed)
        #: the repro.obs span tracer, or None when tracing is off (the
        #: common case — ``engine.span`` then hands out a shared no-op).
        #: DexLens's critical paths ride on span closes, so turning it on
        #: implies a tracer
        lens_on = resolve_switch("lens", self.params.lens)
        self.tracer: Optional[Tracer] = (
            Tracer(self.engine)
            if resolve_switch("trace", self.params.trace) or lens_on
            else None
        )
        #: the fault-injection controller, or None when chaos is off (the
        #: common case — every fabric/protocol hook is one None check)
        self.chaos: Optional[ChaosController] = (
            ChaosController(self.engine, self.params, scenario)
            if scenario is not None
            else None
        )
        self.net = Network(self.engine, num_nodes, self.params, chaos=self.chaos)
        self.nodes: List[DexNode] = [
            DexNode(self.engine, n, self.params) for n in range(num_nodes)
        ]
        self.processes: Dict[int, DexProcess] = {}
        #: the source of every pid in this cluster (DexProcess draws one)
        self.pids = itertools.count(1)
        #: the online analytics bundle (repro.obs.lens), or None when the
        #: lens is off — with it off nothing listens for span closes or
        #: for the processes' fault, invalidate and grant probes
        self.lens: Optional[DexLens] = (
            DexLens(self, self.tracer) if lens_on else None
        )
        #: the DexScope time-series sampler (repro.obs.scope), or None when
        #: telemetry is off — with it off the engine never fires a sampler
        #: and the fabric's wire stage skips its timing reads
        self.scope: Optional[DexScope] = (
            DexScope(self) if resolve_switch("scope", self.params.scope) else None
        )
        self._register_handlers()
        if self.chaos is not None:
            self.chaos.attach(self)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def node(self, node_id: int) -> DexNode:
        return self.nodes[node_id]

    # ------------------------------------------------------------------

    def create_process(self, origin: int = 0, name: str = "") -> DexProcess:
        """Create a new (initially single-node) process at *origin*."""
        if not 0 <= origin < self.num_nodes:
            raise DexError(f"no such node: {origin}")
        proc = DexProcess(self, origin=origin, name=name)
        self.processes[proc.pid] = proc
        return proc

    def retire_process(self, proc: DexProcess, force: bool = False) -> None:
        """Remove a finished process from the cluster.

        ``create_process`` registers the pid in the routing table forever;
        long-lived clusters that churn through many short-lived processes
        (DexServe tenants, the churn test) would otherwise accumulate
        page tables, frame stores, and stats namespaces for every process
        that ever ran.  Retiring unregisters the pid — stray messages for
        it become a hard error, as for any unknown process — and releases
        the per-node state.  Refuses while any thread is still alive
        unless *force* (a fail-stopped process's parked threads never
        finish; forcing is how recovery sweeps them away)."""
        live = [t for t in proc.threads if t.alive]
        if live and not force:
            names = ", ".join(t.name for t in live[:4])
            raise DexError(
                f"cannot retire {proc.name}: {len(live)} thread(s) still "
                f"alive ({names})"
            )
        self.processes.pop(proc.pid, None)
        proc.release()

    def close(self) -> None:
        """Whoever builds a cluster closes it: retire every process (forced),
        detach the engine's observers and samplers, and cut the edges that
        tie the fabric and the scope back to the cluster, so that no
        reference cycle is left and everything the run allocated is freed
        by reference counting when the cluster is dropped.  Results stay
        readable: clock, counters, tracer, lens, scope, every ``stats``."""
        for proc in list(self.processes.values()):
            self.retire_process(proc, force=True)
        self.engine.detach_observers()
        if self.scope is not None:
            self.scope.detach()
        for router in self.net.routers:
            router._handlers.clear()
            router.chaos = router.net = None
        for conn in self.net.connections.values():
            conn._delivery_tail = None
        if self.chaos is not None:
            self.chaos.detach()

    def simulate(
        self,
        main: Callable[..., Generator],
        proc: Optional[DexProcess] = None,
        *args: Any,
        until: Optional[float] = None,
    ) -> Any:
        """Run *main(ctx, *args)* as a thread of *proc* (a fresh process by
        default) and drive the simulation until everything completes.
        Returns the main thread's result."""
        if proc is None:
            proc = self.create_process()
        try:
            thread = proc.spawn_thread(main, *args, name="main")
            if self.chaos is not None:
                # re-arm the keepalive/monitor ticks for this run; stop
                # re-arming once the main thread completes so engine.run()
                # can drain and terminate
                self.chaos.resume_services()
                thread.sim_process.add_callback(
                    lambda _evt: self.chaos.suspend_services()
                )
            self.engine.run(until=until)
            if not thread.sim_process.triggered:
                # an observer with a report() (the wait-for detector knows
                # who is stuck on what) gets to add it
                detail = "".join(
                    "\n" + observer.report()
                    for observer in proc.hooks.observers
                    if hasattr(observer, "report")
                )
                raise DexError(
                    "simulation ended before the main thread finished "
                    "(deadlock or `until` too small)" + detail
                )
            return thread.result
        except DexError as err:
            # deadlock, sanitizer violation, or unrecovered chaos crash:
            # the flight recorder dumps its evidence before the error
            # propagates (lens on only; "" dump path disables)
            if self.lens is not None:
                self.lens.dump_on_crash(err)
            raise

    def run(self, until: Optional[float] = None) -> float:
        """Drive the simulation; returns the final time (microseconds)."""
        return self.engine.run(until=until)

    @property
    def now(self) -> float:
        return self.engine.now

    # ------------------------------------------------------------------

    def _register_handlers(self) -> None:
        """Wire every node's router to the per-process protocol services.
        Messages carry the target pid in their payload."""
        routes = {
            MsgType.PAGE_REQUEST: lambda p: p.protocol.handle_page_request_msg,
            MsgType.PAGE_HOME_LOOKUP: lambda p: p.protocol.handle_home_lookup_msg,
            MsgType.PAGE_INVALIDATE: lambda p: p.protocol.handle_invalidate_msg,
            MsgType.MIGRATE: lambda p: p.migration.handle_migrate_msg,
            MsgType.MIGRATE_BACK: lambda p: p.migration.handle_migrate_back_msg,
            MsgType.DELEGATE: lambda p: p.delegation.handle_delegate,
            MsgType.VMA_QUERY: lambda p: p.vma_sync.handle_query,
            MsgType.VMA_SHRINK: lambda p: p.vma_sync.handle_shrink,
            MsgType.PROCESS_EXIT: lambda p: p.handle_exit_msg,
        }

        def make_dispatcher(getter):
            def dispatcher(msg: Message) -> Generator:
                # the handler's own generator runs as the process: no frame
                # of ours sits between it and the engine
                proc = self.processes.get(msg.payload.get("pid"))
                if proc is None:
                    return _stray(msg)
                return getter(proc)(msg)

            return dispatcher

        def ping_handler(msg: Message) -> Generator:
            yield from self.net.send(msg.make_reply(MsgType.PONG, {"ok": True}))

        def lease_handler(msg: Message) -> Generator:
            # keepalive receipt at the origin (chaos-only traffic); charged
            # a nominal handling cost like any small control message
            yield self.params.verb_recv_overhead
            if self.chaos is not None:
                self.chaos.on_lease_renew(
                    msg.payload["pid"], msg.payload["node"]
                )

        for router in self.net.routers:
            for msg_type, getter in routes.items():
                router.register(msg_type, make_dispatcher(getter))
            router.register(MsgType.PING, ping_handler)
            router.register(MsgType.LEASE_RENEW, lease_handler)

    # ------------------------------------------------------------------

    def ping(self, src: int, dst: int) -> Generator:
        """Round-trip a small message (latency microbenchmark helper);
        returns the round-trip time in microseconds."""
        start = self.engine.now
        yield from self.net.request(Message(MsgType.PING, src=src, dst=dst))
        return self.engine.now - start
