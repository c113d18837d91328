"""The per-layer ladder: one tight loop per layer, through its public API.

Every micro returns ``{catalogue metric name: value}``.  Host-clock values
are one short timing each (a tenth of a second or so): they rank layers
and show order-of-magnitude moves, they are not gated.  Sim-clock values
repeat exactly.
"""

from __future__ import annotations

import heapq
import statistics
import time
from typing import Any, Callable, Dict, Generator, List, Tuple

import numpy as np

from repro.bench.experiments import migration_microbench
from repro.bench.runner import run_point
from repro.core import DexCluster
from repro.memory import AddressSpaceMap, PageState, PageTable, Protection, RadixTree
from repro.obs.metrics import MetricsRegistry
from repro.params import SimParams
from repro.runtime import MemoryAllocator
from repro.runtime.array import alloc_array
from repro.runtime.sync import Barrier
from repro.serve import RejectPolicy, Request, ServeQueue, arrival_times, parse_curve
from repro.sim import Engine, FairShareResource, Resource, Store

import workloads
from stats import digest

PAGE = 4096
#: Table II reference (us): first forward, second forward, backward
PAPER_MIGRATION_US = (812.1, 236.6, 24.7)


def _timed(fn: Callable[[], Any]) -> Tuple[float, Any]:
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


# ---------------------------------------------------------------------------
# sim
# ---------------------------------------------------------------------------


class ReferenceLoop:
    """The speed-of-light event loop: a bare ``(when, seq)`` heap resuming
    generators that yield their next delay (after the sparse-blobpool
    ``Simulator`` in SNIPPETS.md).  No events, callbacks, cancellation,
    hooks or process objects: what ``Engine`` adds on top is what
    ``sim.storm_vs_ref_x`` prices."""

    def __init__(self) -> None:
        self.now = 0.0
        self.events = 0
        self._queue: List[Tuple[float, int, Generator]] = []
        self._seq = 0

    def spawn(self, gen: Generator) -> None:
        self._seq += 1
        heapq.heappush(self._queue, (self.now, self._seq, gen))

    def run(self) -> None:
        queue = self._queue
        while queue:
            when, _, gen = heapq.heappop(queue)
            self.now = when
            self.events += 1
            try:
                delay = next(gen)
            except StopIteration:
                continue
            self._seq += 1
            heapq.heappush(queue, (when + delay, self._seq, gen))


def sim_storm(chains: int = 4, events: int = 200_000) -> Dict[str, float]:
    per_chain = events // chains

    def on_engine() -> int:
        engine = Engine(seed=1)

        def chain():
            for _ in range(per_chain):
                yield engine.timeout(0.1)

        for _ in range(chains):
            engine.process(chain())
        engine.run()
        return engine.events_dispatched

    def on_reference() -> int:
        loop = ReferenceLoop()

        def chain():
            for _ in range(per_chain):
                yield 0.1

        for _ in range(chains):
            loop.spawn(chain())
        loop.run()
        return loop.events

    wall, dispatched = _timed(on_engine)
    ref_wall, _ = _timed(on_reference)
    return {"sim.storm_events_per_s": dispatched / wall,
            "sim.storm_vs_ref_x": wall / ref_wall}


def sim_resources(ops: int = 10_000) -> Dict[str, float]:
    def fairshare() -> None:
        engine = Engine(seed=1)
        link = FairShareResource(engine, 7000.0, name="link")

        def stream():
            for _ in range(ops):
                yield link.consume(4096.0)

        for _ in range(3):
            engine.process(stream())
        engine.run()

    def resource() -> None:
        engine = Engine(seed=1)
        cores = Resource(engine, 2, name="cores")

        def user():
            for _ in range(ops):
                yield cores.acquire()
                yield engine.timeout(0.1)
                cores.release()

        for _ in range(4):
            engine.process(user())
        engine.run()

    def store() -> None:
        engine = Engine(seed=1)
        box = Store(engine, name="box")

        def producer():
            for i in range(2 * ops):
                box.put(i)
                yield engine.timeout(0.1)

        def consumer():
            for _ in range(2 * ops):
                yield box.get()

        engine.process(consumer())
        engine.process(producer())
        engine.run()

    return {"sim.fairshare_ops_per_s": 3 * ops / _timed(fairshare)[0],
            "sim.resource_ops_per_s": 4 * ops / _timed(resource)[0],
            "sim.store_ops_per_s": 2 * ops / _timed(store)[0]}


# ---------------------------------------------------------------------------
# net + the uncontended fault path
# ---------------------------------------------------------------------------


def net_verbs(round_trips: int = 2_000) -> Dict[str, float]:
    cluster = DexCluster(num_nodes=2)

    def main(ctx):
        total = 0.0
        for _ in range(round_trips):
            total += yield from cluster.ping(0, 1)
        return total

    wall, total = _timed(lambda: cluster.simulate(main))
    return {"net.verb_rtt_sim_us": total / round_trips,
            "net.verb_rtt_host_us": 1e6 * wall / round_trips}


def remote_faults(pages: int = 384) -> Dict[str, float]:
    """A thread on node 1 touches *pages* cold pages the origin owns:
    first by reading them (``net.rdma_page_*``: request + 4 KB RDMA
    delivery, fault-side costs stripped as in §V-D), then, in a second
    region, by writing them (``core.fault_fast_host_us``: an uncontended
    ownership transfer)."""
    cluster = DexCluster(num_nodes=2)
    proc = cluster.create_process()
    alloc = MemoryAllocator(proc)
    regions = [alloc.posix_memalign(pages * PAGE) for _ in range(2)]
    filler = bytes(PAGE)

    def init(ctx):
        for base in regions:
            for i in range(pages):
                yield from ctx.write(base + i * PAGE, filler)

    def touch(ctx, base: int, write: bool):
        yield from ctx.migrate(1)
        # warm the VMA replica so every measured fault is pure page traffic
        yield from ctx.read(base, 8)
        total = 0.0
        for i in range(1, pages):
            start = ctx.now
            if write:
                yield from ctx.write(base + i * PAGE, b"\x01" * 8)
            else:
                yield from ctx.read(base + i * PAGE, 8)
            total += ctx.now - start
        yield from ctx.migrate_back()
        return total / (pages - 1)

    cluster.simulate(init, proc)
    read_wall, read_us = _timed(
        lambda: cluster.simulate(touch, proc, regions[0], False))
    write_wall, _ = _timed(
        lambda: cluster.simulate(touch, proc, regions[1], True))
    fault_side = workloads.fault_side_cost(cluster.params)
    return {"net.rdma_page_sim_us": read_us - fault_side,
            "net.rdma_page_host_us": 1e6 * read_wall / (pages - 1),
            "core.fault_fast_host_us": 1e6 * write_wall / (pages - 1)}


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------


def memory_structures(n: int = 20_000) -> Dict[str, float]:
    base = 0x1000_0000 // PAGE

    def radix() -> None:
        tree = RadixTree()
        for i in range(n):
            tree.insert(base + i, i)
        for i in range(n):
            tree.get(base + i)

    def ptes() -> None:
        table = PageTable()
        for i in range(n):
            table.set_state(base + i, PageState.SHARED, data_version=1)
        for i in range(n):
            table.permits(base + i, True)
            table.lookup(base + i)

    space = AddressSpaceMap()
    for i in range(64):
        space.mmap(0x1000_0000 + i * 64 * PAGE, 32 * PAGE,
                   Protection.READ | Protection.WRITE)

    def vma_find() -> None:
        for i in range(n):
            space.find(0x1000_0000 + (i % 64) * 64 * PAGE + 128)

    return {"memory.radix_ops_per_s": 2 * n / _timed(radix)[0],
            "memory.pte_ops_per_s": 3 * n / _timed(ptes)[0],
            "memory.vma_find_ops_per_s": n / _timed(vma_find)[0]}


# ---------------------------------------------------------------------------
# core
# ---------------------------------------------------------------------------


def core_contended(adds_per_thread: int = 600) -> Dict[str, float]:
    """Four threads on four nodes adding to one word with a think time
    shorter than a fault: nearly every add faults and most lose a race."""
    cluster = DexCluster(num_nodes=4)
    proc = cluster.create_process()
    var = MemoryAllocator(proc).alloc_global(8, tag="hot")

    def adder(ctx, node: int):
        if node:
            yield from ctx.migrate(node)
        for _ in range(adds_per_thread):
            yield from ctx.atomic_add_i64(var, 1, site="ladder")
            yield from ctx.compute(cpu_us=5.0)

    threads = [proc.spawn_thread(adder, node) for node in range(4)]

    def main(ctx):
        yield from proc.join_all(threads)

    wall, _ = _timed(lambda: cluster.simulate(main, proc))
    contended = sum(1 for r in proc.stats.fault_latencies if r.retries > 0)
    if contended == 0:
        raise AssertionError("contended-fault micro produced no retries")
    return {"core.fault_contended_host_us":
            1e6 * wall / proc.stats.total_faults}


def core_revoke_fanout(pages: int = 48) -> Dict[str, float]:
    """Seven nodes read every page, then the origin writes each: every
    write upgrade revokes seven shared copies."""
    cluster = DexCluster(num_nodes=8)
    proc = cluster.create_process()
    base = MemoryAllocator(proc).posix_memalign(pages * PAGE)

    def init(ctx):
        for i in range(pages):
            yield from ctx.write(base + i * PAGE, b"\x00" * 8)

    def reader(ctx, node: int):
        yield from ctx.migrate(node)
        for i in range(pages):
            yield from ctx.read(base + i * PAGE, 8)
        yield from ctx.migrate_back()

    def share(ctx):
        readers = [proc.spawn_thread(reader, node) for node in range(1, 8)]
        yield from proc.join_all(readers)

    def writer(ctx):
        total = 0.0
        for i in range(pages):
            start = ctx.now
            yield from ctx.write(base + i * PAGE, b"\x01" * 8)
            total += ctx.now - start
        return total / pages

    cluster.simulate(init, proc)
    cluster.simulate(share, proc)
    before = proc.stats.invalidations_sent
    wall, mean_us = _timed(lambda: cluster.simulate(writer, proc))
    if proc.stats.invalidations_sent - before != 7 * pages:
        raise AssertionError("revoke fan-out micro did not revoke 7 copies per page")
    return {"core.revoke_fanout_sim_us": mean_us,
            "core.revoke_fanout_host_us": 1e6 * wall / pages}


def core_migration(rounds: int = 300) -> Dict[str, float]:
    wall, report = _timed(lambda: migration_microbench(rounds=rounds))
    ours = (report.first_forward["total_us"], report.second_forward["total_us"],
            report.backward["total_us"])
    err = 100.0 * sum(abs(o - p) / p
                      for o, p in zip(ours, PAPER_MIGRATION_US)) / 3
    return {"core.migrate_first_sim_us": ours[0],
            "core.migrate_second_sim_us": ours[1],
            "core.migrate_back_sim_us": ours[2],
            "core.table2_err_pct": err,
            "core.migrate_rt_host_us": 1e6 * wall / rounds}


def core_sharded_vs_origin(seed: int) -> Dict[str, float]:
    """KMN-initial@8 mean fault latency, sharded directory over origin."""
    means = {}
    for backend in ("origin", "sharded"):
        result = run_point("KMN", "initial", 8, "small",
                           params=SimParams(seed=seed, directory=backend),
                           n_points=40_000, max_iters=1)
        if result.correct is not True:
            raise AssertionError(f"KMN-initial@8 ({backend}) gave a wrong answer")
        lat = [r.latency_us for r in result.stats.fault_latencies]
        means[backend] = sum(lat) / len(lat)
    return {"core.sharded_fault_mean_x": means["sharded"] / means["origin"]}


# ---------------------------------------------------------------------------
# runtime
# ---------------------------------------------------------------------------


def runtime_arrays(elements: int = 262_144, adds: int = 10_000,
                   allocs: int = 20_000) -> Dict[str, float]:
    cluster = DexCluster(num_nodes=2)
    proc = cluster.create_process()
    alloc = MemoryAllocator(proc)
    data = alloc_array(alloc, np.float64, elements, name="data",
                       page_aligned=True)
    counters = alloc_array(alloc, np.int64, 8, name="counters",
                           page_aligned=True)
    chunk = 8192  # elements: 64 KB reads, the apps' usual chunk
    passes = 16

    def fill(ctx):
        yield from data.write(ctx, 0, np.arange(elements, dtype=np.float64))

    def read(ctx):
        for _ in range(passes):
            for lo in range(0, elements, chunk):
                yield from data.read(ctx, lo, lo + chunk)

    def add(ctx):
        for i in range(adds):
            yield from counters.add(ctx, i & 7, 1)

    def allocate() -> None:
        for _ in range(allocs):
            alloc.malloc(64)

    cluster.simulate(fill, proc)
    read_wall, _ = _timed(lambda: cluster.simulate(read, proc))
    add_wall, _ = _timed(lambda: cluster.simulate(add, proc))
    mb = passes * elements * 8 / 1e6
    return {"runtime.array_read_mb_per_s": mb / read_wall,
            "runtime.array_add_ops_per_s": adds / add_wall,
            "runtime.alloc_ops_per_s": allocs / _timed(allocate)[0]}


def runtime_barrier(rounds: int = 20) -> Dict[str, float]:
    cluster = DexCluster(num_nodes=8)
    proc = cluster.create_process()
    barrier = Barrier(MemoryAllocator(proc), 8, page_aligned=True, name="ladder")

    def party(ctx, node: int):
        if node:
            yield from ctx.migrate(node)
        yield from barrier.wait(ctx)  # line everyone up past the migrations
        start = ctx.now
        for _ in range(rounds):
            yield from barrier.wait(ctx)
        return ctx.now - start

    threads = [proc.spawn_thread(party, node) for node in range(8)]

    def main(ctx):
        spans = yield from proc.join_all(threads)
        return max(spans)

    wall, span_us = _timed(lambda: cluster.simulate(main, proc))
    return {"runtime.barrier_sim_us": span_us / rounds,
            "runtime.barrier_host_us": 1e6 * wall / (rounds + 1)}


# ---------------------------------------------------------------------------
# serve, obs
# ---------------------------------------------------------------------------


def serve_admission(n: int = 30_000) -> Dict[str, float]:
    engine = Engine(seed=1)
    queue = ServeQueue(engine, "ladder", 0, 32)
    policy = RejectPolicy()

    def admit() -> None:
        for rid in range(n):
            policy.decide(queue, Request(rid, "ladder", 0, float(rid), 0, 1),
                          float(rid))
            queue.take()

    def arrivals() -> None:
        arrival_times(parse_curve("poisson", 40_000.0, n), seed=1)
        arrival_times(parse_curve("burst", 20_000.0, n), seed=1)

    return {"serve.admit_ops_per_s": n / _timed(admit)[0],
            "serve.arrivals_gen_per_s": 2 * n / _timed(arrivals)[0]}


def obs_histogram(n: int = 100_000) -> Dict[str, float]:
    hist = MetricsRegistry().histogram("ladder_us", "ladder micro")
    values = np.random.default_rng(1).lognormal(4.0, 1.0, n).tolist()

    def observe() -> None:
        for value in values:
            hist.observe(value)

    return {"obs.hist_observe_per_s": n / _timed(observe)[0]}


# ---------------------------------------------------------------------------
# the knobs
# ---------------------------------------------------------------------------

KNOBS: Tuple[Tuple[str, Dict[str, str]], ...] = (
    ("obs.trace_on_x", {"trace": "1"}),
    ("obs.lens_on_x", {"lens": "1", "lens_dump_path": ""}),
    ("obs.scope_on_x", {"scope": "1"}),
    ("check.sanitize_on_x", {"sanitize": "1"}),
    ("chaos.on_x", {"chaos": "on"}),
)
#: with chaos on, requests ride the reliable transport (sequence numbers,
#: acks, timers), which is part of the model: sim time legitimately moves.
#: Every other knob promises bit-identical sim results on vs off.
KNOBS_THAT_MAY_MOVE_SIM_TIME = ("chaos.on_x",)


def knob_costs(seed: int, duration_us: float = 3_000.0, rounds: int = 3
               ) -> Dict[str, float]:
    """On-cost multiplier of each instrumentation knob on a short
    ``pingpong``: per round one knobs-off run and one run per knob,
    interleaved; the median over rounds of on/off."""

    def run(**knob: str) -> Tuple[float, str]:
        params = SimParams(seed=seed, sanitize="", trace="", lens="",
                           scope="", chaos="").copy(**knob)
        wall, (cluster, proc, adds, value) = _timed(
            lambda: workloads.run_pingpong(duration_us, params))
        if adds != value:
            raise AssertionError(f"lost updates under {knob or 'knobs off'}")
        result = digest([cluster.engine.now, adds, value,
                         [r.latency_us for r in proc.stats.fault_latencies]])
        return wall, result

    ratios: Dict[str, List[float]] = {name: [] for name, _ in KNOBS}
    for _ in range(rounds):
        off_wall, off_result = run()
        for name, knob in KNOBS:
            wall, result = run(**knob)
            if (result != off_result
                    and name not in KNOBS_THAT_MAY_MOVE_SIM_TIME):
                raise AssertionError(
                    f"{name}: sim results differ from the knobs-off run")
            ratios[name].append(wall / off_wall)
    return {name: statistics.median(rs) for name, rs in ratios.items()}


def short_digest(seed: int) -> str:
    """Sim digest of a short ``pingpong`` plus one KMN point; run under two
    ``PYTHONHASHSEED`` values by ``host.hashseed_stable``."""
    params = SimParams(seed=seed)
    cluster, proc, adds, value = workloads.run_pingpong(2_000.0, params)
    point = run_point("KMN", "initial", 4, "small", params=params,
                      n_points=8_000, max_iters=1)
    return digest([cluster.engine.now, adds, value,
                   [r.latency_us for r in proc.stats.fault_latencies],
                   point.elapsed_us, point.correct, point.output,
                   [r.latency_us for r in point.stats.fault_latencies]])


MICROS: Tuple[Tuple[str, Callable[..., Dict[str, float]], bool], ...] = (
    # (span name, micro, takes the seed)
    ("sim.storm", sim_storm, False),
    ("sim.resources", sim_resources, False),
    ("net.verbs", net_verbs, False),
    ("net+core.remote_faults", remote_faults, False),
    ("memory.structures", memory_structures, False),
    ("core.contended", core_contended, False),
    ("core.revoke_fanout", core_revoke_fanout, False),
    ("core.migration", core_migration, False),
    ("core.sharded_vs_origin", core_sharded_vs_origin, True),
    ("runtime.arrays", runtime_arrays, False),
    ("runtime.barrier", runtime_barrier, False),
    ("serve.admission", serve_admission, False),
    ("obs.histogram", obs_histogram, False),
    ("knobs", knob_costs, True),
)


def run_ladder(seed: int, spans: Any) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for name, micro, seeded in MICROS:
        with spans.span(f"ladder:{name}"):
            out.update(micro(seed) if seeded else micro())
    return out
