"""The paper's evaluation (§V), each experiment written once.

``EXPERIMENTS`` maps an experiment name to a function of the parsed CLI
arguments that measures it as :class:`Row` records, and ``SHAPE`` holds
what the paper says of a row: its number and the band the row must stay
in.  A ``SHAPE`` name with an ``a/b`` segment is a relation, the ratio of
the rows named with ``a`` and with ``b`` (``fig2.GRP.optimized/initial.n8``).
"""

from __future__ import annotations

import itertools
import math
import statistics
from contextlib import closing
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Sequence

from repro import DexCluster, SimParams
from repro.apps import APP_NAMES, RunSpec, get_app

INF = math.inf
VARIANTS = ("initial", "optimized")


@dataclass(frozen=True)
class Row:
    """One measured quantity, the paper's number for it and the closed
    band ``[lo, hi]`` it must fall in (unbounded: no claim)."""

    name: str
    ours: float
    unit: str
    paper: Optional[float] = None
    lo: float = -INF
    hi: float = INF

    @property
    def banded(self) -> bool:
        return (self.lo, self.hi) != (-INF, INF)

    @property
    def ok(self) -> bool:
        return not self.banded or self.lo <= self.ours <= self.hi


def gt(lo: float, **paper) -> dict:
    """Strictly above *lo*: the closed band from the next float up
    (``gt(a) | lt(b)`` is strictly between)."""
    return dict(lo=math.nextafter(lo, INF), **paper)


def lt(hi: float, **paper) -> dict:
    return dict(hi=math.nextafter(hi, -INF), **paper)


def near(paper: float, rel: float = 1e-6) -> dict:
    """Within *rel* of the paper's number, as ``pytest.approx`` reads it."""
    return dict(lo=paper * (1 - rel), hi=paper * (1 + rel), paper=paper)


#: the paper's Table I numbers (total changed LoC: initial, optimized)
PAPER_TABLE1 = {
    "GRP": (2, 18), "KMN": (2, 26), "BT": (38, 61), "EP": (2, 4),
    "FT": (20, 44), "BLK": (2, 6), "BFS": (11, 38), "BP": (12, 42),
}
#: Figure 2 at 8 nodes and --scale small: (initial, optimized) per app
FIG2_N8 = {
    "GRP": (lt(1.0), gt(1.3)), "KMN": (lt(1.1), gt(1.3)),
    "BT": (lt(1.0), gt(1.0) | lt(4.0)), "EP": (gt(2.0), gt(2.0)),
    "FT": (lt(1.0), lt(1.0)), "BLK": (gt(2.0), {}), "BFS": (lt(1.0), lt(1.0)),
}
#: the §III design choices, one SimParams field each: row prefix -> (field,
#: values, app, variant, nodes, metrics besides correct and elapsed_us)
ABLATIONS = {
    "coalescing": ("enable_fault_coalescing", (True, False), "KMN", "initial",
                   4, ("total_faults", "faults_coalesced", "leaders",
                       "fault_retries")),
    "transfer": ("page_transfer_mode", ("rdma_sink", "verb", "rdma_register"),
                 "GRP", "optimized", 4, ()),
    "skip": ("enable_transfer_skip", (True, False), "KMN", "optimized", 4,
             ("pages_transferred", "transfers_skipped")),
    "directory": ("directory", ("origin", "sharded"), "KMN", "initial", 8,
                  ("mean_fault_us", "total_faults", "fault_retries",
                   "origin_dir_share", "hint_hit_rate", "hint_lookups")),
}
ON_OFF = {True: "on", False: "off"}

#: what the paper says of each row; each band is one shape assertion
SHAPE: Dict[str, dict] = {
    **{f"table1.{app}.{variant}": near(loc, 0) for app, locs in
       PAPER_TABLE1.items() for variant, loc in zip(VARIANTS, locs)},
    "table1.unmatched_apps": dict(lo=0, hi=0),
    "table1.total.initial": dict(hi=119, paper=110),  # "~110 added lines"
    "table1.total.optimized": dict(paper=246),
    # the totals add the wire round trip the paper's origin + remote omits
    "table2.first.origin_us": near(12.1, 0.05),
    "table2.first.remote_us": near(800.0, 0.05),
    "table2.first.total_us": near(812.1, 0.05),
    "table2.second.origin_us": near(6.6, 0.05),
    "table2.second.remote_us": near(230.0, 0.05),
    "table2.second.total_us": near(236.6, 0.06),
    "table2.backward.total_us": near(24.7, 0.20),
    "table2.second/first.total_us": lt(0.35, paper=236.6 / 812.1),
    "table2.backward/first.total_us": lt(0.1, paper=24.7 / 812.1),
    # remote-worker setup dominates the first migration, and only the first
    "fig3.first.remote_worker": near(620.0),
    "fig3.first.remote_worker/remote_side": gt(0.7, paper=620 / 800),
    "fig3.second.remote_worker": dict(lo=0.0, hi=0.0),
    **{f"fig3.second/first.{part}": dict(lo=1.0, hi=1.0)
       for part in ("thread_fork", "context_restore", "schedule")},
    "pagefault.lost_updates": dict(lo=0, hi=0),
    "pagefault.total_faults": dict(lo=201),
    "pagefault.fast_count": dict(lo=1), "pagefault.contended_count": dict(lo=1),
    "pagefault.fast_share_pct": dict(paper=27.5),
    "pagefault.fast_mean_us": gt(12.0) | lt(27.0, paper=19.3),
    "pagefault.contended_mean_us": gt(110.0) | lt(220.0, paper=158.8),
    "pagefault.bimodal_ratio": gt(5.0) | lt(13.0, paper=8.2),
    # "constantly took 13.6us to retrieve a 4 KB page"
    "pagefault.page_retrieval_us": gt(9.0) | lt(18.0, paper=13.6),
    "fig2.wrong_outputs": dict(lo=0, hi=0), "fig2.peak": dict(paper=10.06),
    "fig2.beyond_one_machine": dict(paper=6),
    **{f"fig2.{app}.{variant}.n8": claim for app, claims in FIG2_N8.items()
       for variant, claim in zip(VARIANTS, claims) if claim},
    "fig2.GRP.optimized/initial.n8": gt(2.0),
    "fig2.KMN.optimized/initial.n8": gt(1.0),
    "fig2.FT.optimized/initial.n8": dict(lo=1.0),
    "fig2.BFS.optimized/initial.n8": dict(lo=1.0),
    "fig2.BP.initial.n2": gt(2.0, paper=3.84),  # super-linear from 1 to 2
    "fig2.BP.initial.n8/n2": gt(1.0),
    **{f"ablation.{prefix}.{ON_OFF.get(value, value)}.correct": dict(lo=1, hi=1)
       for prefix, (_, values, *_) in ABLATIONS.items() for value in values},
    "ablation.coalescing.on.faults_coalesced": dict(lo=1),
    "ablation.coalescing.off.faults_coalesced": dict(lo=0, hi=0),
    "ablation.coalescing.off/on.fault_retries": dict(lo=1.0),
    "ablation.coalescing.off/on.leaders": gt(1.0),
    "ablation.transfer.rdma_sink/verb.elapsed_us": lt(1.0),
    "ablation.transfer.rdma_sink/rdma_register.elapsed_us": lt(1.0),
    # "dynamic RDMA region association is so costly that it can offset
    # the benefit of RDMA"
    "ablation.transfer.rdma_register/verb.elapsed_us": gt(1.0),
    "ablation.skip.on.transfers_skipped": dict(lo=1),
    "ablation.skip.off/on.pages_transferred": gt(1.0),
    "ablation.skip.on/off.elapsed_us": dict(hi=1.02),
    "ablation.directory.origin.origin_dir_share": dict(lo=1.0, hi=1.0),
    "ablation.directory.sharded.origin_dir_share": lt(0.5),
    "ablation.directory.sharded/origin.mean_fault_us": lt(1.0),
    "ablation.directory.sharded.hint_hit_rate": gt(0.5),
    "ablation.directory.origin.hint_lookups": dict(lo=0, hi=0),
}


def run(name: str, args) -> List[Row]:
    """Experiment *name* measured under the parsed CLI *args*, with
    ``SHAPE`` laid over its rows and its relation rows appended."""
    rows = [replace(row, **SHAPE.get(row.name, {}))
            for row in EXPERIMENTS[name](args)]
    ours = {row.name: row.ours for row in rows}
    for relation, claim in SHAPE.items():
        parts = relation.split(".")
        for i, part in enumerate(parts):
            sides = [".".join(parts[:i] + [side] + parts[i + 1:])
                     for side in part.split("/")]
            if len(sides) == 2 and all(side in ours for side in sides):
                num, den = (ours[side] for side in sides)
                rows.append(Row(relation, num / den if den else math.nan,
                                "ratio", **claim))
    return rows


#: decimals a unit prints with; counts and LoC print none
PLACES = {"us": 1, "%": 1, "x": 2, "ratio": 3}


def render(rows: Sequence[Row]) -> str:
    """Any experiment's rows: name, ours, paper, ours ÷ paper, band, ok."""
    def fmt(value: Optional[float], unit: str) -> str:
        return "-" if value is None else f"{value:.{PLACES.get(unit, 0)}f}"

    width = max((len(row.name) for row in rows), default=3)
    lines = [f"{'row':{width}} {'ours':>10} unit  {'paper':>8} ÷paper  band"]
    for row in rows:
        ratio = f"{row.ours / row.paper:.2f}" if row.paper else "-"
        band = (f"[{fmt(row.lo, row.unit)}, {fmt(row.hi, row.unit)}] "
                + ("ok" if row.ok else "FAIL")) if row.banded else "-"
        lines.append(f"{row.name:{width}} {fmt(row.ours, row.unit):>10} "
                     f"{row.unit:5} {fmt(row.paper, row.unit):>8} {ratio:>6}"
                     f"  {band}")
    return "\n".join(lines)


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
    def main(ctx):
        for _ in range(rounds):
            yield from ctx.migrate(1)
            yield from ctx.sleep(1_000_000.0)  # "every second"
            yield from ctx.migrate_back()
            yield from ctx.sleep(1_000_000.0)

    with closing(DexCluster(num_nodes=2, params=params)) as cluster:
        proc = cluster.create_process()
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


def table1(args) -> List[Row]:
    """Table I: lines changed to adapt each application to DeX"""
    rows = [Row(f"table1.{app}.{variant}",
                getattr(get_app(app).ADAPTATION, f"{variant}_loc"), "LoC")
            for app in APP_NAMES for variant in VARIANTS]
    return rows + [
        Row("table1.unmatched_apps", len(set(APP_NAMES) ^ set(PAPER_TABLE1)),
            "apps"),
        *(Row(f"table1.total.{variant}", sum(
            row.ours for row in rows if row.name.endswith(variant)), "LoC")
          for variant in VARIANTS)]


def table2(args) -> Iterator[Row]:
    """Table II: thread migration latency at the origin, remote and total"""
    report = migration_microbench()
    for kind, sides in (("first", report.first_forward),
                        ("second", report.second_forward),
                        ("backward", report.backward)):
        for side, us in sides.items():
            yield Row(f"table2.{kind}.{side}", us, "us")


def figure3(args) -> Iterator[Row]:
    """Figure 3: breakdown of the migration latency at the remote node"""
    report = migration_microbench()
    for kind, parts in (("first", report.breakdown_first),
                        ("second", report.breakdown_second)):
        parts = {"remote_worker": 0.0, **parts}
        for part, us in parts.items():
            yield Row(f"fig3.{kind}.{part}", us, "us")
        yield Row(f"fig3.{kind}.remote_side", sum(  # collect runs at origin
            us for part, us in parts.items() if part != "context_collect"),
            "us")


def page_retrieval_us() -> float:
    """The messaging layer's request + 4KB RDMA delivery, what the paper's
    13.6us measures: one cold remote page fetch, less the fault-handling
    side costs."""
    def fetch(ctx):
        yield from ctx.migrate(1)
        # warm the VMA replica so the measured fault is pure page fetch
        yield from ctx.read(0x1000_0000 + 8192, 8)
        start = ctx.now
        yield from ctx.read(0x1000_0000, 8)
        return ctx.now - start

    with closing(DexCluster(num_nodes=2)) as cluster:
        fetch_latency = cluster.simulate(fetch, cluster.create_process())
    p = cluster.params
    return fetch_latency - (
        p.fault_trap_cost + p.fault_coalesce_lookup_cost + p.page_alloc_cost
        + p.pte_update_cost + p.protocol_handler_cost)


def pagefault(args) -> Iterator[Row]:
    """§V-D: page-fault handling, two threads ping-ponging one variable"""
    result = RunSpec("pagefault", overrides={"duration_us": 100_000.0}).run()
    counts, value = result.output
    recs = [r for r in result.stats.fault_latencies if not r.coalesced]
    fast = [r.latency_us for r in recs if r.retries == 0]
    slow = [r.latency_us for r in recs if r.retries > 0]
    fast_mean = statistics.mean(fast) if fast else 0.0
    slow_mean = statistics.mean(slow) if slow else 0.0
    yield Row("pagefault.total_faults", len(recs), "count")
    yield Row("pagefault.fast_count", len(fast), "count")
    yield Row("pagefault.fast_mean_us", fast_mean, "us")
    yield Row("pagefault.contended_count", len(slow), "count")
    yield Row("pagefault.contended_mean_us", slow_mean, "us")
    yield Row("pagefault.page_retrieval_us", page_retrieval_us(), "us")
    yield Row("pagefault.lost_updates", sum(counts) - value, "count")
    yield Row("pagefault.fast_share_pct", 100 * len(fast) / max(len(recs), 1),
              "%")
    yield Row("pagefault.bimodal_ratio",
              slow_mean / fast_mean if fast_mean > 0 else 0.0, "x")


def figure2(args) -> Iterator[Row]:
    """Figure 2: speed-up over the unmodified one-node run (> 1 beats it)"""
    # (app, variant, nodes, speed-up) per run; a run's result is dropped
    # once read, so the sweep holds no outputs or fault records
    wrong, points = 0, []
    for app in args.apps:
        baseline = RunSpec(app, "unmodified", 1, args.scale,
                           directory=args.directory).run()
        wrong += baseline.correct is not True
        points.append((app, "unmodified", baseline.num_nodes, 1.0))
        for variant, nodes in itertools.product(VARIANTS, args.nodes):
            result = RunSpec(app, variant, nodes, args.scale,
                             directory=args.directory).run()
            wrong += result.correct is not True
            speedup = baseline.elapsed_us / result.elapsed_us
            points.append((app, variant, result.num_nodes, speedup))
            name = f"fig2.{result.app.upper()}.{variant}.n{result.num_nodes}"
            yield Row(name, speedup, "x")
            if result.stats.hint_hit_rate is not None:
                yield Row(f"{name}.hint_hit", result.stats.hint_hit_rate,
                          "ratio")
    top = max((n for _, _, n, _ in points), default=0)
    yield Row("fig2.wrong_outputs", wrong, "runs")
    yield Row("fig2.beyond_one_machine", len({
        app for app, variant, n, speedup in points
        if variant == "optimized" and n == top and speedup > 1.0}), "apps")
    yield Row("fig2.peak", max((speedup for *_, speedup in points),
                               default=0.0), "x")


def _mean_fault_us(result) -> float:
    """Mean latency over every recorded fault, leaders and followers."""
    records = result.stats.fault_latencies
    if not records:
        return 0.0
    return sum(r.latency_us for r in records) / len(records)


#: the metrics of an ablation run that are not a DexStats counter
DERIVED = {
    "correct": lambda r: int(r.correct is True),
    "elapsed_us": lambda r: r.elapsed_us,
    "mean_fault_us": _mean_fault_us,
    # the faults that ran the protocol themselves, leaders and loners
    "leaders": lambda r: r.stats.total_faults - r.stats.faults_coalesced,
    "origin_dir_share": lambda r: r.stats.directory_requests.get(0, 0) / (
        sum(r.stats.directory_requests.values()) or 1),
    "hint_lookups": lambda r: r.stats.hint_hits + r.stats.hint_misses,
}


def ablation(args) -> Iterator[Row]:
    """Ablations of the §III design choices, one SimParams field each"""
    for prefix, (field, values, app, variant, nodes, metrics) in (
            ABLATIONS.items()):
        for value in values:
            result = RunSpec(app, variant, nodes,
                             base=SimParams(**{field: value})).run()
            name = f"ablation.{prefix}.{ON_OFF.get(value, value)}"
            for metric in ("correct", "elapsed_us", *metrics):
                ours = (DERIVED[metric](result) if metric in DERIVED
                        else getattr(result.stats, metric))
                if ours is not None:  # a hit rate needs lookups
                    yield Row(f"{name}.{metric}", ours,
                              "us" if metric.endswith("_us") else
                              "ratio" if isinstance(ours, float) else "count")


#: ``python -m repro.bench all`` runs them in this order
EXPERIMENTS = {
    "table1": table1, "table2": table2, "figure3": figure3,
    "pagefault": pagefault, "figure2": figure2, "ablation": ablation,
}
