"""Drivers for every table and figure of the paper's evaluation (§V)."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import DexCluster, SimParams
from repro.apps import APP_NAMES, get_app
from repro.bench.runner import ScalingPoint, run_point, run_scaling
from repro.runtime import MemoryAllocator


# ---------------------------------------------------------------------------
# Table I — adaptation complexity
# ---------------------------------------------------------------------------

#: the paper's Table I numbers (total changed LoC: initial, optimized)
PAPER_TABLE1 = {
    "GRP": (2, 18), "KMN": (2, 26), "BT": (38, 61), "EP": (2, 4),
    "FT": (20, 44), "BLK": (2, 6), "BFS": (11, 38), "BP": (12, 42),
}


def table1() -> List[Dict]:
    """Adaptation-complexity rows from each app's recorded metadata."""
    rows = []
    for name in APP_NAMES:
        info = get_app(name).ADAPTATION
        rows.append(
            {
                "app": name,
                "impl": info.multithread_impl
                + (f" ({info.regions})" if info.regions else ""),
                "initial_loc": info.initial_loc,
                "optimized_loc": info.optimized_loc,
                "notes": info.notes,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Figure 2 — application scalability
# ---------------------------------------------------------------------------


def figure2(
    apps: Sequence[str] = APP_NAMES,
    node_counts: Sequence[int] = (1, 2, 4, 8),
    variants: Sequence[str] = ("initial", "optimized"),
    scale: str = "small",
    directory: Optional[str] = None,
) -> List[ScalingPoint]:
    """The full scalability sweep, optionally under a non-default
    coherence-directory backend."""
    points: List[ScalingPoint] = []
    for app in apps:
        points.extend(run_scaling(app, node_counts, variants, scale,
                                  directory=directory))
    return points


def figure2_summary(points: List[ScalingPoint]) -> Dict[str, object]:
    """The headline claims derived from the sweep: how many of the eight
    apps end above single-machine performance, and the best speedup."""
    best_at_max: Dict[str, float] = {}
    max_nodes = max(p.num_nodes for p in points)
    for p in points:
        if p.num_nodes == max_nodes and p.variant == "optimized":
            best_at_max[p.app] = max(best_at_max.get(p.app, 0.0), p.normalized)
    scaled = sorted(app for app, s in best_at_max.items() if s > 1.0)
    peak = max((p.normalized for p in points), default=0.0)
    return {
        "apps_beyond_single_machine": scaled,
        "count_beyond": len(scaled),
        "total_apps": len(best_at_max),
        "peak_speedup": peak,
        "all_correct": all(p.correct for p in points),
    }


# ---------------------------------------------------------------------------
# Table II + Figure 3 — migration latency & breakdown
# ---------------------------------------------------------------------------


@dataclass
class MigrationReport:
    first_forward: Dict[str, float]
    second_forward: Dict[str, float]
    backward: Dict[str, float]
    breakdown_first: Dict[str, float]   # Figure 3 components (us)
    breakdown_second: Dict[str, float]


def migration_microbench(
    rounds: int = 10, params: Optional[SimParams] = None
) -> MigrationReport:
    """The §V-D migration microbenchmark: migrate one thread back and
    forth; report per-side latencies and the remote-side breakdown."""
    cluster = DexCluster(num_nodes=2, params=params)
    proc = cluster.create_process()

    def main(ctx):
        for _ in range(rounds):
            yield from ctx.migrate(1)
            yield from ctx.sleep(1_000_000.0)  # "every second"
            yield from ctx.migrate_back()
            yield from ctx.sleep(1_000_000.0)

    cluster.simulate(main, proc)
    records = proc.stats.migrations
    firsts = [m for m in records if m.kind == "forward" and m.first_on_node]
    seconds = [m for m in records if m.kind == "forward" and not m.first_on_node]
    backs = [m for m in records if m.kind == "backward"]

    def sides(ms):
        return {
            "origin_us": statistics.mean(m.origin_us for m in ms),
            "remote_us": statistics.mean(m.remote_us for m in ms),
            "total_us": statistics.mean(m.total_us for m in ms),
        }

    return MigrationReport(
        first_forward=sides(firsts),
        second_forward=sides(seconds),
        backward=sides(backs),
        breakdown_first=dict(firsts[0].components),
        breakdown_second=dict(seconds[0].components),
    )


# ---------------------------------------------------------------------------
# §V-D — page-fault handling microbenchmark
# ---------------------------------------------------------------------------


@dataclass
class FaultReport:
    total_faults: int
    fast_count: int
    fast_mean_us: float
    contended_count: int
    contended_mean_us: float
    page_retrieval_us: float  # messaging-layer 4KB fetch (paper: 13.6us)
    lost_updates: int         # must be zero

    @property
    def bimodal_ratio(self) -> float:
        if self.fast_mean_us <= 0:
            return 0.0
        return self.contended_mean_us / self.fast_mean_us


def pagefault_micro(
    duration_us: float = 100_000.0,
    params: Optional[SimParams] = None,
    cluster: Optional[DexCluster] = None,
) -> FaultReport:
    """Two threads on two nodes ping-ponging one global variable (§V-D).
    A tool that inspects the hammer run afterwards passes its own 2-node
    *cluster* (built from the same *params*)."""
    if cluster is None:
        cluster = DexCluster(num_nodes=2, params=params)
    proc = cluster.create_process()
    alloc = MemoryAllocator(proc)
    var = alloc.alloc_global(8, tag="shared_var")

    def hammer(ctx, dest):
        count = 0
        if dest is not None:
            yield from ctx.migrate(dest)
        while ctx.now < duration_us:
            yield from ctx.atomic_add_i64(var, 1, site="hammer")
            yield from ctx.compute(cpu_us=0.1)
            count += 1
        return count

    t1 = proc.spawn_thread(hammer, None)
    t2 = proc.spawn_thread(hammer, 1)

    def main(ctx):
        counts = yield from proc.join_all([t1, t2])
        value = yield from ctx.read_i64(var)
        return counts, value

    counts, value = cluster.simulate(main, proc)
    recs = [r for r in proc.stats.fault_latencies if not r.coalesced]
    fast = [r.latency_us for r in recs if r.retries == 0]
    slow = [r.latency_us for r in recs if r.retries > 0]
    # messaging-layer page retrieval: one cold remote 4KB fetch
    cluster2 = DexCluster(num_nodes=2, params=params)
    proc2 = cluster2.create_process()

    def fetch(ctx):
        yield from ctx.migrate(1)
        # warm the VMA replica so the measured fault is pure page fetch
        yield from ctx.read(0x1000_0000 + 8192, 8)
        start = ctx.now
        yield from ctx.read(0x1000_0000, 8)
        return ctx.now - start

    fetch_latency = cluster2.simulate(fetch, proc2)
    # strip the fault-handling side costs, leaving the messaging layer's
    # request + 4KB RDMA delivery (what the paper's 13.6us measures)
    trap_side = (
        cluster2.params.fault_trap_cost
        + cluster2.params.fault_coalesce_lookup_cost
        + cluster2.params.page_alloc_cost
        + cluster2.params.pte_update_cost
        + cluster2.params.protocol_handler_cost
    )
    return FaultReport(
        total_faults=len(recs),
        fast_count=len(fast),
        fast_mean_us=statistics.mean(fast) if fast else 0.0,
        contended_count=len(slow),
        contended_mean_us=statistics.mean(slow) if slow else 0.0,
        page_retrieval_us=fetch_latency - trap_side,
        lost_updates=sum(counts) - value,
    )


# ---------------------------------------------------------------------------
# Ablations — design choices §III calls out
# ---------------------------------------------------------------------------


def ablation_coalescing(app: str = "KMN", num_nodes: int = 4,
                        scale: str = "small") -> Dict[str, Dict[str, float]]:
    """Leader–follower fault coalescing (§III-C) on vs off."""
    out = {}
    for label, enabled in (("coalescing_on", True), ("coalescing_off", False)):
        result = run_point(app, "initial", num_nodes, scale,
                           params=SimParams(enable_fault_coalescing=enabled))
        out[label] = {
            "elapsed_us": result.elapsed_us,
            "faults": float(result.stats.total_faults),
            "coalesced": float(result.stats.faults_coalesced),
            "retries": float(result.stats.fault_retries),
            "correct": float(bool(result.correct)),
        }
    return out


def ablation_transfer_mode(app: str = "GRP", num_nodes: int = 4,
                           scale: str = "small") -> Dict[str, float]:
    """Page-data path (§III-E): the RDMA-sink hybrid vs verb-only vs
    per-page region registration."""
    out = {}
    for mode in ("rdma_sink", "verb", "rdma_register"):
        result = run_point(app, "optimized", num_nodes, scale,
                           params=SimParams(page_transfer_mode=mode))
        assert result.correct, f"{app} wrong under transfer mode {mode}"
        out[mode] = result.elapsed_us
    return out


def ablation_transfer_skip(app: str = "KMN", num_nodes: int = 4,
                           scale: str = "small") -> Dict[str, Dict[str, float]]:
    """Skipping data transfer for up-to-date copies (§III-B) on vs off."""
    out = {}
    for label, enabled in (("skip_on", True), ("skip_off", False)):
        result = run_point(app, "optimized", num_nodes, scale,
                           params=SimParams(enable_transfer_skip=enabled))
        out[label] = {
            "elapsed_us": result.elapsed_us,
            "pages_transferred": float(result.stats.pages_transferred),
            "transfers_skipped": float(result.stats.transfers_skipped),
            "correct": float(bool(result.correct)),
        }
    return out


def ablation_directory(app: str = "KMN", num_nodes: int = 8,
                       scale: str = "small") -> Dict[str, Dict[str, float]]:
    """Coherence-directory placement: the paper's origin-resident
    directory vs the sharded home-node directory.

    The fault-heavy *initial* variants hammer the directory, so this is
    where decongesting the origin shows: the sharded backend spreads
    metadata service (and the page flush/grant data traffic that follows
    it) across home nodes, lowering the mean fault-handling latency."""
    out = {}
    for backend in ("origin", "sharded"):
        result = run_point(app, "initial", num_nodes, scale,
                           params=SimParams(directory=backend))
        assert result.correct, f"{app} wrong under directory={backend}"
        stats = result.stats
        records = stats.fault_latencies
        mean_fault = (
            sum(r.latency_us for r in records) / len(records) if records else 0.0
        )
        requests = stats.directory_requests
        total_requests = sum(requests.values()) or 1
        row = {
            "elapsed_us": result.elapsed_us,
            "mean_fault_us": mean_fault,
            "faults": float(stats.total_faults),
            "retries": float(stats.fault_retries),
            # share of directory requests the origin node served: 1.0 by
            # construction for the origin backend, <1 once shards spread
            "origin_dir_share": requests.get(0, 0) / total_requests,
        }
        if stats.hint_hit_rate is not None:
            row["hint_hit_rate"] = stats.hint_hit_rate
        out[backend] = row
    return out
