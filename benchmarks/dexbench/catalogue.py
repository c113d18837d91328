"""The metric catalogue: every number DexBench prints, in one table.

``BENCHMARK.json`` (``end_to_end`` / ``per_layer`` / ``workloads``) is
generated from this module by ``run.py --write-benchmark-json`` and the
unit tests assert the two agree, so a metric is declared exactly once.

Tiers
-----
``e2e``    defined, and never zero, on all four workloads: the driver's
           ``end_to_end`` list, printed by ``--trace 0``.
``user``   user-visible but meaningful on some workloads only (serve
           latency has no value on ``pingpong``).  The driver contract
           wants every end-to-end metric from every workload, so these
           ride in ``per_layer`` (printed by ``--trace 1``, 0 where not
           applicable) and are gated by ``compare.py`` with the bound here.
``layer``  single-layer metrics, no bound.

Clocks
------
``host``   what the simulator costs us; noisy.
``sim``    what modelled DeX would do; repeats exactly for a fixed seed.
``count``  an exact counter read from a public object after a run.

Sources: ``E`` measured around whole repetitions, ``L`` ladder micro,
``C`` counter, ``S`` sampling profile of one extra repetition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

RESULT_SCHEMA = "dexbench-result/v1"
RUN_SECONDS = 15
#: the seed the committed ledger was tuned on, and the one it was not
TUNING_SEED = 42
HELD_OUT_SEED = 20200708

ALL = ("pingpong", "contended_apps", "scaled_apps", "serve_mix")
APPS = ("contended_apps", "scaled_apps")

WORKLOADS: Tuple[Tuple[str, str], ...] = (
    ("pingpong",
     "closed loop, 2 threads on 2 nodes writing one word: engine dispatch "
     "and the fault/protocol path do the work, apps/runtime/serve are idle"),
    ("contended_apps",
     "initial GRP/KMN/BT/BFS on 8 nodes: false sharing, coalesced "
     "followers, busy retries, revoke fan-out and directory congestion"),
    ("scaled_apps",
     "optimized BLK/EP/BP/KMN/GRP on 8 nodes: bulk read-replication, long "
     "compute and numpy bodies; fault-path changes should not show here"),
    ("serve_mix",
     "open loop, 4 tenants on the sharded directory at 0.75x/1.0x/1.25x "
     "load; scan tenants write a shared page so requests fault while served"),
)

CONTENDED_POINTS = ("GRP-initial", "KMN-initial", "BT-initial", "BFS-initial")
SCALED_POINTS = ("BLK-optimized", "EP-optimized", "BP-optimized",
                 "KMN-optimized", "GRP-optimized")
TENANTS = ("scan-a", "scan-b", "kmn", "blk")
PACKAGES = ("sim", "net", "memory", "core", "runtime", "apps", "serve",
            "obs", "check", "chaos")


@dataclass(frozen=True)
class Metric:
    name: str
    tier: str           # "e2e" | "user" | "layer"
    clock: str          # "host" | "sim" | "count"
    unit: str
    better: str         # "lower" | "higher"
    source: str         # "E" | "L" | "C" | "S"
    #: share of the baseline's value by which the metric may get worse
    #: (None: layer metric, no bound)
    bound: Optional[float] = None
    #: absolute slack instead of a share (``paper_err_pct``: +0.5 points)
    abs_bound: Optional[float] = None
    #: workloads on which the metric is defined; elsewhere it prints 0
    workloads: Tuple[str, ...] = ALL
    #: the end-to-end metric(s) this one should move, and where
    moves: str = ""

    @property
    def limit(self) -> Optional[float]:
        """The slack in force: ``abs_bound`` where set, else ``bound``."""
        return self.abs_bound if self.abs_bound is not None else self.bound

    def driver_entry(self) -> Dict[str, Any]:
        entry = {"name": self.name, "unit": self.unit, "better": self.better}
        if self.tier == "e2e":
            entry["bound"] = self.bound
        return entry


def _m(name, tier, clock, unit, better, source, **kw) -> Metric:
    return Metric(name, tier, clock, unit, better, source, **kw)


def _build() -> List[Metric]:
    ms: List[Metric] = [
        # ---- end to end, every workload --------------------------------
        # bounds are what the driver's cross-seed spread rule leaves room
        # for (README, "Bounds"), not how far a value may really drift
        _m("wall_s", "e2e", "host", "s", "lower", "E", bound=0.25),
        _m("setup_s", "e2e", "host", "s", "lower", "E", bound=0.25),
        _m("peak_rss_mb", "e2e", "host", "MiB", "lower", "E", bound=0.10),
        _m("sim_elapsed_us", "e2e", "sim", "us", "lower", "E", bound=0.15),
        _m("fault_mean_us", "e2e", "sim", "us", "lower", "E", bound=0.15),
        _m("fault_p99_us", "e2e", "sim", "us", "lower", "E", bound=0.25),
        # ---- user-visible, some workloads ------------------------------
        _m("speedup_geomean", "user", "sim", "x", "higher", "E", bound=0.01,
           workloads=APPS),
        _m("sim_ops_per_s", "user", "sim", "1/s", "higher", "E", bound=0.01,
           workloads=("pingpong",)),
        _m("paper_err_pct", "user", "sim", "%", "lower", "E", abs_bound=0.5,
           workloads=("pingpong",)),
        _m("serve_p50_us", "user", "sim", "us", "lower", "E", bound=0.01,
           workloads=("serve_mix",)),
        _m("serve_p99_us", "user", "sim", "us", "lower", "E", bound=0.01,
           workloads=("serve_mix",)),
        _m("serve_goodput_rps", "user", "sim", "1/s", "higher", "E",
           bound=0.01, workloads=("serve_mix",)),
        _m("serve_slo_attainment", "user", "sim", "ratio", "higher", "E",
           bound=0.01, workloads=("serve_mix",)),
        _m("serve_sustained_load_x", "user", "sim", "x", "higher", "E",
           bound=0.0, workloads=("serve_mix",)),
        _m("failed_ops_ratio", "user", "count", "ratio", "lower", "E",
           bound=0.0),
    ]

    def layer(name, clock, unit, better, source, workloads=ALL, moves=""):
        ms.append(_m(name, "layer", clock, unit, better, source,
                     workloads=workloads, moves=moves))

    # ---- sim ------------------------------------------------------------
    to = "wall_s on pingpong, then contended_apps; no sim-clock metric"
    layer("sim.self_share", "host", "ratio", "lower", "S", moves=to)
    layer("sim.events", "count", "count", "lower", "C", moves=to)
    layer("sim.host_us_per_event", "host", "us", "lower", "C", moves=to)
    layer("sim.storm_events_per_s", "host", "1/s", "higher", "L", moves=to)
    layer("sim.storm_vs_ref_x", "host", "x", "lower", "L", moves=to)
    layer("sim.fairshare_ops_per_s", "host", "1/s", "higher", "L", moves=to)
    layer("sim.resource_ops_per_s", "host", "1/s", "higher", "L", moves=to)
    layer("sim.store_ops_per_s", "host", "1/s", "higher", "L", moves=to)
    # ---- net ------------------------------------------------------------
    to = "wall_s on scaled_apps and contended_apps"
    layer("net.self_share", "host", "ratio", "lower", "S", moves=to)
    layer("net.msgs", "count", "count", "lower", "C", moves=to)
    layer("net.wire_mb", "count", "MB", "lower", "C", moves=to)
    layer("net.page_payloads", "count", "count", "lower", "C", moves=to)
    layer("net.pool_stalls", "count", "count", "lower", "C", moves=to)
    sim_to = "fault_mean_us everywhere; sim_elapsed_us on scaled_apps"
    layer("net.verb_rtt_sim_us", "sim", "us", "lower", "L", moves=sim_to)
    layer("net.verb_rtt_host_us", "host", "us", "lower", "L", moves=to)
    layer("net.rdma_page_sim_us", "sim", "us", "lower", "L", moves=sim_to)
    layer("net.rdma_page_host_us", "host", "us", "lower", "L", moves=to)
    # ---- memory ---------------------------------------------------------
    to = "wall_s on the app workloads"
    layer("memory.self_share", "host", "ratio", "lower", "S", moves=to)
    layer("memory.radix_ops_per_s", "host", "1/s", "higher", "L", moves=to)
    layer("memory.pte_ops_per_s", "host", "1/s", "higher", "L", moves=to)
    layer("memory.vma_find_ops_per_s", "host", "1/s", "higher", "L", moves=to)
    # ---- core -----------------------------------------------------------
    host_to = "wall_s on pingpong and contended_apps"
    layer("core.self_share", "host", "ratio", "lower", "S", moves=host_to)
    proto_to = ("sim_elapsed_us + speedup_geomean on contended_apps, "
                "serve_p99_us + serve_sustained_load_x on serve_mix; "
                "not scaled_apps")
    for name, unit, better in (
        ("faults", "count", "lower"),
        ("write_fault_ratio", "ratio", "lower"),
        ("coalesced_ratio", "ratio", "higher"),
        ("retries_per_fault", "ratio", "lower"),
        ("pages_transferred", "count", "lower"),
        ("transfer_skip_ratio", "ratio", "higher"),
        ("invalidations", "count", "lower"),
        ("dir_requests", "count", "lower"),
        ("origin_dir_share", "ratio", "lower"),
        ("hint_hit_ratio", "ratio", "higher"),
        ("migrations", "count", "lower"),
        ("delegations", "count", "lower"),
        ("futex_ops", "count", "lower"),
        ("vma_queries", "count", "lower"),
    ):
        layer(f"core.{name}", "count", unit, better, "C", moves=proto_to)
    lat_to = "fault_mean_us, sim_ops_per_s, paper_err_pct on pingpong"
    layer("core.fault_fast_ratio", "sim", "ratio", "higher", "C", moves=lat_to)
    layer("core.fault_fast_mean_us", "sim", "us", "lower", "C", moves=lat_to)
    layer("core.fault_contended_mean_us", "sim", "us", "lower", "C",
          moves=lat_to)
    layer("core.fault_coalesced_mean_us", "sim", "us", "lower", "C",
          moves=lat_to)
    layer("core.revoke_fanout_sim_us", "sim", "us", "lower", "L",
          moves="fault_p99_us on contended_apps")
    tbl = "none of the e2e metrics (migration happens once per thread)"
    layer("core.migrate_first_sim_us", "sim", "us", "lower", "L", moves=tbl)
    layer("core.migrate_second_sim_us", "sim", "us", "lower", "L", moves=tbl)
    layer("core.migrate_back_sim_us", "sim", "us", "lower", "L", moves=tbl)
    layer("core.table2_err_pct", "sim", "%", "lower", "L", moves=tbl)
    layer("core.sharded_fault_mean_x", "sim", "x", "lower", "L",
          moves="fault_mean_us on serve_mix (sharded backend)")
    layer("core.fault_fast_host_us", "host", "us", "lower", "L", moves=host_to)
    layer("core.fault_contended_host_us", "host", "us", "lower", "L",
          moves=host_to)
    layer("core.revoke_fanout_host_us", "host", "us", "lower", "L",
          moves=host_to)
    layer("core.migrate_rt_host_us", "host", "us", "lower", "L",
          moves="setup_s (thread placement at start of every run)")
    # ---- runtime --------------------------------------------------------
    to = "wall_s on scaled_apps and serve_mix; nothing on pingpong"
    layer("runtime.self_share", "host", "ratio", "lower", "S", moves=to)
    layer("runtime.array_read_mb_per_s", "host", "MB/s", "higher", "L",
          moves=to)
    layer("runtime.array_add_ops_per_s", "host", "1/s", "higher", "L",
          moves=to)
    layer("runtime.alloc_ops_per_s", "host", "1/s", "higher", "L", moves=to)
    layer("runtime.barrier_sim_us", "sim", "us", "lower", "L",
          moves="sim_elapsed_us on the app workloads")
    layer("runtime.barrier_host_us", "host", "us", "lower", "L", moves=to)
    # ---- apps -----------------------------------------------------------
    layer("apps.self_share", "host", "ratio", "lower", "S",
          moves="wall_s on scaled_apps (BP dominates)")
    for points, workload in ((CONTENDED_POINTS, "contended_apps"),
                             (SCALED_POINTS, "scaled_apps")):
        for point in points:
            only = (workload,)
            layer(f"apps.{point}.wall_s", "host", "s", "lower", "E", only,
                  f"wall_s on {workload}")
            layer(f"apps.{point}.sim_us", "sim", "us", "lower", "E", only,
                  f"addend of sim_elapsed_us on {workload}")
            layer(f"apps.{point}.speedup", "sim", "x", "higher", "E", only,
                  f"factor of speedup_geomean on {workload}")
    # ---- serve ----------------------------------------------------------
    only = ("serve_mix",)
    to = ("serve_p99_us, serve_goodput_rps, serve_sustained_load_x and "
          "wall_s, on serve_mix only")
    layer("serve.self_share", "host", "ratio", "lower", "S", moves=to)
    layer("serve.requests_per_host_s", "host", "1/s", "higher", "E", only, to)
    layer("serve.p99_us_075x", "sim", "us", "lower", "E", only, to)
    layer("serve.p99_us_125x", "sim", "us", "lower", "E", only, to)
    layer("serve.reject_ratio_125x", "count", "ratio", "lower", "C", only, to)
    layer("serve.queue_wait_p99_us", "sim", "us", "lower", "C", only, to)
    layer("serve.queue_depth_hwm", "count", "count", "lower", "C", only, to)
    for tenant in TENANTS:
        layer(f"serve.{tenant}.p99_us", "sim", "us", "lower", "E", only, to)
    layer("serve.admit_ops_per_s", "host", "1/s", "higher", "L", moves=to)
    layer("serve.arrivals_gen_per_s", "host", "1/s", "higher", "L", moves=to)
    # ---- obs / check / chaos: the knobs ---------------------------------
    off = "none with the knobs off; the row the instrumentation seam moves"
    for pkg in ("obs", "check", "chaos"):
        layer(f"{pkg}.self_share", "host", "ratio", "lower", "S", moves=off)
    for name in ("obs.trace_on_x", "obs.lens_on_x", "obs.scope_on_x",
                 "check.sanitize_on_x", "chaos.on_x"):
        layer(name, "host", "x", "lower", "L", moves=off)
    layer("obs.hist_observe_per_s", "host", "1/s", "higher", "L",
          moves="wall_s everywhere (every fault feeds a histogram)")
    # ---- host -----------------------------------------------------------
    none = "reported, not gated"
    layer("host.cpu_s", "host", "s", "lower", "E", moves="wall_s")
    layer("host.import_s", "host", "s", "lower", "E", moves="setup_s")
    layer("host.wall_median_s", "host", "s", "lower", "E", moves="wall_s")
    layer("host.wall_iqr_pct", "host", "%", "lower", "E", moves=none)
    layer("host.sampler_overhead_x", "host", "x", "lower", "S", moves=none)
    layer("host.gc_collections", "count", "count", "lower", "C",
          moves="wall_s")
    layer("host.hashseed_stable", "count", "count", "higher", "L", moves=none)
    layer("host.other_share", "host", "ratio", "lower", "S",
          moves="harness + repro.bench frames: what the shares leave over")
    return ms


METRICS: Tuple[Metric, ...] = tuple(_build())
BY_NAME: Dict[str, Metric] = {m.name: m for m in METRICS}
E2E = tuple(m for m in METRICS if m.tier == "e2e")
USER = tuple(m for m in METRICS if m.tier == "user")
PER_LAYER = tuple(m for m in METRICS if m.tier != "e2e")
#: the metrics compare.py gates: everything with a bound
GATED = tuple(m for m in METRICS if m.tier in ("e2e", "user"))


def benchmark_json() -> Dict[str, Any]:
    """The driver-facing ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "benchmarks/dexbench/run.py"],
        "paths": ["benchmarks/dexbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [m.driver_entry() for m in E2E],
        "per_layer": [m.driver_entry() for m in PER_LAYER],
    }


def markdown_tables() -> str:
    """The catalogue as the two tables of README.md (``run.py --catalogue``)."""
    def bound(m: Metric) -> str:
        if m.abs_bound is not None:
            return f"+{m.abs_bound:g} abs"
        return "" if m.bound is None else f"{100 * m.bound:g} %"

    def on(m: Metric) -> str:
        return "all" if m.workloads == ALL else ", ".join(m.workloads)

    lines = ["| metric | clock | unit | better | bound | source | defined on |",
             "|---|---|---|---|---|---|---|"]
    lines += [f"| `{m.name}` | {m.clock} | {m.unit} | {m.better} | {bound(m)} "
              f"| {m.source} | {on(m)} |" for m in GATED]
    lines += ["", "| metric | clock | unit | better | source | should move |",
              "|---|---|---|---|---|---|"]
    lines += [f"| `{m.name}` | {m.clock} | {m.unit} | {m.better} | {m.source} "
              f"| {m.moves} |" for m in METRICS if m.tier == "layer"]
    return "\n".join(lines)


def validate_result(doc: Any, trace: bool) -> List[str]:
    """Check one driver-format result line against the contract; returns
    the list of problems (empty when the document is well formed)."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["result is not a JSON object"]
    if set(doc) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys are {sorted(doc)}")
        return problems
    if not isinstance(doc["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(doc[key], int) or isinstance(doc[key], bool):
            problems.append(f"{key} is not a whole number")
    if isinstance(doc["attempted"], int) and doc["attempted"] < 1:
        problems.append("attempted < 1")
    wanted = PER_LAYER if trace else E2E
    metrics = doc["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["metrics is not an object"]
    if set(metrics) != {m.name for m in wanted}:
        missing = sorted({m.name for m in wanted} - set(metrics))
        extra = sorted(set(metrics) - {m.name for m in wanted})
        problems.append(f"metric names differ: missing {missing}, extra {extra}")
    for m in wanted:
        got = metrics.get(m.name)
        if got is None:
            continue
        if set(got) != {"value", "unit"} or got["unit"] != m.unit:
            problems.append(f"{m.name}: bad entry {got}")
            continue
        value = got["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            problems.append(f"{m.name}: value is not a number")
        elif value != value or value in (float("inf"), float("-inf")):
            problems.append(f"{m.name}: value is not finite")
        elif m.tier == "e2e" and value == 0:
            problems.append(f"{m.name}: end-to-end metric is 0")
    return problems
