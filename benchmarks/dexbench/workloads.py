"""The four DexBench workloads, driven through the repo's public entry points.

Each workload is a class with two calls:

``prepare()``  untimed references a repetition is normalised to (the
               ``unmodified``@1 baselines of the app workloads, the 4 KB
               page retrieval of ``pingpong``); part of ``setup_s``.
``repeat()``   one repetition: run the fixed work for this seed, check the
               outputs, return a :class:`Rep`.

The seed reaches the program only as ``SimParams(seed=...)``,
``ServeManager(seed=...)`` and ``TenantSpec.seed``.  A repetition is a
pure function of the seed on the sim clock, which ``Rep.digest`` pins.

Sizes are below ``repro.bench.runner``'s ``small`` preset where that was
needed to fit a run's set-ups and repetitions into the driver's time cap on
a two-core box (README, "Run discipline"): the speed-ups are therefore a regression
ledger, not a reproduction of Figure 2's shape.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.bench.runner import run_point
from repro.core import DexCluster
from repro.params import SimParams
from repro.runtime import MemoryAllocator
from repro.serve import ServeManager, TenantSpec, parse_curve

import catalogue
from stats import digest, geomean, tail_percentile

#: §V-D reference latencies (us): fast fault, contended fault, 4 KB page
PAPER_FAULT_US = (19.3, 158.8, 13.6)


@dataclass
class Rep:
    """What one repetition produced: sim-clock numbers and exact counts
    only (host time is the caller's business), all pinned by ``digest``."""

    attempted: int = 0
    #: wrong app output, lost update, mismatched / failed request
    failed: int = 0
    #: admission-control refusals (rejected / shed / throttled)
    refused: int = 0
    #: violated output checks, human readable; empty means correct
    violations: List[str] = field(default_factory=list)
    #: sim-clock metrics and exact counts, by catalogue name
    sim: Dict[str, float] = field(default_factory=dict)
    #: (percentile really used, sample count) behind each percentile metric
    samples: Dict[str, Tuple[float, int]] = field(default_factory=dict)
    #: output checksums and exact counts that are not metrics themselves
    outputs: Dict[str, Any] = field(default_factory=dict)
    #: the per-process DexStats the fault metrics and counters come from
    stats: List[Any] = field(default_factory=list)
    digest: str = ""

    def seal(self) -> "Rep":
        self.digest = digest({
            "sim": self.sim, "outputs": self.outputs,
            "attempted": self.attempted, "failed": self.failed,
            "refused": self.refused, "violations": self.violations,
        })
        return self


def fault_metrics(rep: Rep) -> None:
    """``fault_mean_us`` / ``fault_p99_us`` over every fault of
    ``rep.stats``, followers included.  Mean, not median: on ``pingpong``
    the median sits on the 50/50 fast-vs-contended boundary and flips
    between ~18 and ~157 us on a one-sample shift."""
    lat = [r.latency_us for s in rep.stats for r in s.fault_latencies]
    rep.sim["fault_mean_us"] = sum(lat) / len(lat)
    value, pct, n = tail_percentile(lat)
    rep.sim["fault_p99_us"] = value
    rep.samples["fault_p99_us"] = (pct, n)


class Workload:
    """Common shape: ``prepare()`` then any number of ``repeat()`` calls.

    *spans* gets one span per part of a repetition — the pingpong run, an
    app point, a serve level — named by :meth:`part`.  Only the parts call
    into the program; what a repetition does between them (checksums,
    percentiles) is harness work and stays out of ``wall_s``."""

    name = ""

    def __init__(self, seed: int, spans: Any = None):
        self.seed = seed
        self.spans = spans

    def part(self, name: str):
        return self.spans.span(name) if self.spans is not None else nullcontext()

    def prepare(self) -> None:
        pass

    def repeat(self, clusters: Optional[List[Any]] = None) -> Rep:
        raise NotImplementedError


@contextmanager
def recording_clusters(sink: Optional[List[Any]]) -> Iterator[None]:
    """Traced run only: make ``repro.apps.common`` build a ``DexCluster``
    subclass that remembers itself, so the engine and fabric counters of
    an app run can be read afterwards.  Timed runs pass ``None`` and
    ``run_point`` runs untouched."""
    if sink is None:
        yield
        return
    import repro.apps.common as common

    class RecordingCluster(DexCluster):
        def __init__(self, *args: Any, **kwargs: Any):
            super().__init__(*args, **kwargs)
            sink.append(self)

    original = common.DexCluster
    common.DexCluster = RecordingCluster
    try:
        yield
    finally:
        common.DexCluster = original


# ---------------------------------------------------------------------------
# pingpong
# ---------------------------------------------------------------------------


def fault_side_cost(p: SimParams) -> float:
    """What a remote read fault costs besides the messaging layer's
    request + 4 KB delivery; stripping it leaves §V-D's 13.6 us figure."""
    return (p.fault_trap_cost + p.fault_coalesce_lookup_cost
            + p.page_alloc_cost + p.pte_update_cost + p.protocol_handler_cost)


def page_retrieval_us(params: Optional[SimParams] = None) -> float:
    """One cold remote 4 KB fetch through the messaging layer, fault-side
    costs stripped — the figure §V-D reports as 13.6 us (same procedure
    as ``repro.bench.experiments.pagefault_micro``)."""
    cluster = DexCluster(num_nodes=2, params=params)
    proc = cluster.create_process()

    def fetch(ctx):
        yield from ctx.migrate(1)
        # warm the VMA replica so the measured fault is pure page fetch
        yield from ctx.read(0x1000_0000 + 8192, 8)
        start = ctx.now
        yield from ctx.read(0x1000_0000, 8)
        return ctx.now - start

    return cluster.simulate(fetch, proc) - fault_side_cost(cluster.params)


def run_pingpong(duration_us: float, params: SimParams,
                 clusters: Optional[List[Any]] = None):
    """The §V-D micro: two threads on two nodes hammering one 8-byte
    global for *duration_us* (closed loop, 2 clients).

    This is ``pagefault_micro``'s hammer written against the same public
    API, for two reasons: the harness needs the per-fault records for
    ``fault_p99_us`` (``FaultReport`` keeps only the two means), and the
    think time between adds is drawn from the engine's seeded RNG (mean
    0.1 us, the micro's constant) so that the inputs follow the seed.
    Returns ``(cluster, process, adds, final_value)``."""
    cluster = DexCluster(num_nodes=2, params=params)
    if clusters is not None:
        clusters.append(cluster)
    proc = cluster.create_process()
    var = MemoryAllocator(proc).alloc_global(8, tag="shared_var")
    think = cluster.engine.rng.uniform(0.05, 0.15, size=(2, 1024)).tolist()

    def hammer(ctx, dest, gaps):
        count = 0
        if dest is not None:
            yield from ctx.migrate(dest)
        while ctx.now < duration_us:
            yield from ctx.atomic_add_i64(var, 1, site="hammer")
            yield from ctx.compute(cpu_us=gaps[count & 1023])
            count += 1
        return count

    threads = [proc.spawn_thread(hammer, None, think[0]),
               proc.spawn_thread(hammer, 1, think[1])]

    def main(ctx):
        counts = yield from proc.join_all(threads)
        value = yield from ctx.read_i64(var)
        return counts, value

    counts, value = cluster.simulate(main, proc)
    return cluster, proc, sum(counts), value


class PingPong(Workload):
    name = "pingpong"
    DURATION_US = 30_000.0

    def __init__(self, seed: int, spans: Any = None):
        super().__init__(seed, spans)
        self.params = SimParams(seed=seed)
        self.page_us = 0.0

    def prepare(self) -> None:
        self.page_us = page_retrieval_us(self.params)

    def repeat(self, clusters: Optional[List[Any]] = None) -> Rep:
        with self.part("run"):
            cluster, proc, adds, value = run_pingpong(
                self.DURATION_US, self.params, clusters)
        rep = Rep(attempted=adds, failed=adds - value, stats=[proc.stats])
        if adds != value:
            rep.violations.append(f"{adds - value} lost updates")
        leaders = [r for r in proc.stats.fault_latencies if not r.coalesced]
        fast = [r.latency_us for r in leaders if r.retries == 0]
        slow = [r.latency_us for r in leaders if r.retries > 0]
        if not fast or not slow:
            rep.violations.append("fault latency is not bimodal")
            fast, slow = fast or [0.0], slow or [0.0]
        ours = (sum(fast) / len(fast), sum(slow) / len(slow), self.page_us)
        rep.sim["sim_elapsed_us"] = cluster.engine.now
        rep.sim["sim_ops_per_s"] = adds / (cluster.engine.now / 1e6)
        rep.sim["paper_err_pct"] = 100.0 * sum(
            abs(o - p) / p for o, p in zip(ours, PAPER_FAULT_US)) / 3
        rep.outputs["value"] = value
        fault_metrics(rep)
        return rep.seal()


# ---------------------------------------------------------------------------
# contended_apps / scaled_apps
# ---------------------------------------------------------------------------

#: workload sizes: ``small`` preset except where a comment says otherwise
APP_SIZES: Dict[str, Dict[str, int]] = {
    "GRP": {"text_size": 2 * 1024 * 1024},
    "KMN": {"n_points": 80_000, "max_iters": 1},       # small: 2 iterations
    "BT": {"grid_cells": 131_072, "iters": 1},         # small: 262144 x 2
    "BFS": {"n_vertices": 4_096, "n_edges": 16_000},   # small: 16384/60000
    "BLK": {"n_options": 160_000},
    "EP": {"n_pairs": 480_000},
    "BP": {"n_vertices": 32_768, "n_edges": 500_000, "iters": 1},  # 65536/1M x 2
}


class AppSet(Workload):
    """A fixed list of (app, variant) points at 8 nodes."""

    NODES = 8

    def __init__(self, name: str, points: Sequence[str], seed: int,
                 spans: Any = None):
        super().__init__(seed, spans)
        self.name = name
        self.points = [tuple(p.split("-")) for p in points]
        self.params = SimParams(seed=seed)
        self.baseline_us: Dict[str, float] = {}

    def _run(self, app: str, variant: str, nodes: int):
        return run_point(app, variant, nodes, "small", params=self.params,
                         **APP_SIZES[app])

    def prepare(self) -> None:
        for app in sorted({app for app, _ in self.points}):
            base = self._run(app, "unmodified", 1)
            if base.correct is not True:
                raise AssertionError(f"{app}: unmodified@1 gave a wrong answer")
            self.baseline_us[app] = base.elapsed_us

    def repeat(self, clusters: Optional[List[Any]] = None) -> Rep:
        rep = Rep(attempted=len(self.points))
        speedups = []
        with recording_clusters(clusters):
            for app, variant in self.points:
                label = f"{app}-{variant}"
                with self.part(f"point:{label}"):
                    result = self._run(app, variant, self.NODES)
                if result.correct is not True:
                    rep.failed += 1
                    rep.violations.append(f"{label}: correct={result.correct}")
                speedup = self.baseline_us[app] / result.elapsed_us
                speedups.append(speedup)
                rep.sim[f"apps.{label}.sim_us"] = result.elapsed_us
                rep.sim[f"apps.{label}.speedup"] = speedup
                rep.outputs[label] = digest(result.output)
                rep.stats.append(result.stats)
        rep.sim["sim_elapsed_us"] = sum(
            rep.sim[f"apps.{a}-{v}.sim_us"] for a, v in self.points)
        rep.sim["speedup_geomean"] = geomean(speedups)
        fault_metrics(rep)
        return rep.seal()


# ---------------------------------------------------------------------------
# serve_mix
# ---------------------------------------------------------------------------

LEVELS = (0.75, 1.0, 1.25)
#: the level the request-latency metrics are read at
NOMINAL = 1.0
SLO_P99_US = 2000.0
#: refused + failed requests a level may have and still count as sustained
SUSTAINED_REFUSAL_SHARE = 0.01


def level_key(level: float) -> str:
    return f"{round(level * 100):03d}x"


def serve_specs(level: float, seed: int) -> List[TenantSpec]:
    """The four tenants at *level* times the nominal load: rates and
    request counts scale together, so every level offers the same shape
    over the same simulated time."""

    def curve(kind: str, rate: float, requests: int, **kw):
        return parse_curve(kind, rate * level, max(round(requests * level), 1),
                           **kw)

    def tenant(i: int, name: str, workload: str, crv, nodes, items: int):
        return TenantSpec(name, workload, crv, nodes=nodes, workers_per_node=2,
                          queue_capacity=32, policy="reject", items=items,
                          slo_p99_us=SLO_P99_US, seed=seed + i)

    return [
        tenant(0, "scan-a", "scan", curve("poisson", 44_000, 1200),
               (0, 1, 2, 3), 65_536),
        tenant(1, "scan-b", "scan",
               curve("burst", 20_000, 1300, burst_at_us=10_000.0,
                     burst_for_us=5_000.0, burst_x=3.5),
               (2, 3, 4, 5), 65_536),
        tenant(2, "kmn", "kmn", curve("poisson", 28_000, 700),
               (4, 5, 6, 7), 8_192),
        tenant(3, "blk", "blk", curve("poisson", 10_000, 300),
               (6, 7, 0, 1), 8_192),
    ]


class ServeMix(Workload):
    """Open loop.  Latency is counted from each request's precomputed due
    time (``Request.arrival_us``); the injector fires on sim time, so the
    generator is never late — lateness is zero by construction."""

    name = "serve_mix"

    def repeat(self, clusters: Optional[List[Any]] = None) -> Rep:
        rep = Rep()
        rep.sim["sim_elapsed_us"] = 0.0
        sustained, knee_found = 0.0, False
        for level in LEVELS:
            key = level_key(level)
            with self.part(f"level:{key}"):
                manager = ServeManager(serve_specs(level, self.seed),
                                       num_nodes=8, seed=self.seed,
                                       directory="sharded")
                report = manager.run()
            if clusters is not None:
                clusters.append(manager.cluster)
            if self._level(rep, level, key, manager, report) and not knee_found:
                sustained = level
            else:
                knee_found = True
        rep.sim["serve_sustained_load_x"] = sustained
        # every fault of the three levels: a p99 over one level's ~3000
        # faults flips between retry modes (305 vs 390 us) from seed to seed
        fault_metrics(rep)
        return rep.seal()

    def _level(self, rep: Rep, level: float, key: str, manager, report) -> bool:
        """Fold one load level into *rep*; True if the level is sustained:
        every tenant's p99 within its SLO and at most 1 % of its requests
        refused or failed."""
        latencies: List[float] = []
        injected = refused = failed = within_slo = 0
        sustained = True
        makespan_us = 0.0
        nominal = level == NOMINAL
        for tenant in manager.tenants:
            name = tenant.spec.name
            c = tenant.counts()
            lost = c["failed"] + c["mismatched"]
            turned_away = c["rejected"] + c["throttled"] + c["shed"]
            terminal = c["completed"] + turned_away + c["failed"]
            if not (terminal == c["injected"] == tenant.spec.curve.requests):
                rep.violations.append(
                    f"{key} {name}: {terminal} terminal states for "
                    f"{c['injected']} injected")
                lost += abs(c["injected"] - terminal)
            if c["mismatched"]:
                rep.violations.append(
                    f"{key} {name}: {c['mismatched']} mismatched results")
            injected += c["injected"]
            refused += turned_away
            failed += lost
            mine = [lat for _, lat in tenant.samples]
            within_slo += sum(1 for lat in mine if lat <= tenant.spec.slo_p99_us)
            latencies.extend(mine)
            # open loop: the arrival schedule sets each tenant's makespan;
            # the system only decides how long after its last arrival the
            # last reply comes
            lag = max(t for t, _ in tenant.samples) - report["serve_start_us"]
            rep.sim["sim_elapsed_us"] += lag
            makespan_us = max(makespan_us, lag)
            p99, pct, n = tail_percentile(mine)
            sustained = (sustained and p99 <= tenant.spec.slo_p99_us
                         and turned_away + lost
                         <= SUSTAINED_REFUSAL_SHARE * c["injected"])
            if nominal:
                rep.sim[f"serve.{name}.p99_us"] = p99
                rep.samples[f"serve.{name}.p99_us"] = (pct, n)
                rep.outputs[f"{name}.write_faults"] = tenant.proc.stats.faults_write
            rep.outputs[f"{key}.{name}.counts"] = c
            rep.stats.append(tenant.proc.stats)
        rep.attempted += injected
        rep.failed += failed
        rep.refused += refused
        p99, pct, n = tail_percentile(latencies)
        if nominal:
            # not report["duration_us"]: that is rounded up to the manager's
            # 250 us tick, which would make goodput a step function
            duration_s = makespan_us / 1e6
            p50, p50_pct, _ = tail_percentile(latencies, target=50.0)
            rep.sim["serve_p50_us"] = p50
            rep.sim["serve_p99_us"] = p99
            rep.samples["serve_p50_us"] = (p50_pct, n)
            rep.samples["serve_p99_us"] = (pct, n)
            rep.sim["serve_goodput_rps"] = within_slo / duration_s
            rep.sim["serve_slo_attainment"] = within_slo / injected
            docs = report["tenants"].values()
            rep.sim["serve.queue_wait_p99_us"] = max(
                d["queue_wait_us"]["p99"] for d in docs)
            rep.sim["serve.queue_depth_hwm"] = max(
                d["queue_depth_hwm"] for d in docs)
        else:
            rep.sim[f"serve.p99_us_{key}"] = p99
            rep.samples[f"serve.p99_us_{key}"] = (pct, n)
        if level == LEVELS[-1]:
            rep.sim[f"serve.reject_ratio_{key}"] = refused / injected
        return sustained


def make(name: str, seed: int, spans: Any = None) -> Workload:
    if name == "pingpong":
        return PingPong(seed, spans)
    if name == "contended_apps":
        return AppSet(name, catalogue.CONTENDED_POINTS, seed, spans)
    if name == "scaled_apps":
        return AppSet(name, catalogue.SCALED_POINTS, seed, spans)
    if name == "serve_mix":
        return ServeMix(seed, spans)
    raise ValueError(f"unknown workload {name!r}")
