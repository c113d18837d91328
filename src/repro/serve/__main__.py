"""The DexServe CLI.

Run a multi-tenant serving scenario::

    python -m repro.serve --tenants kmn:constant,grp:constant,blk:constant,scan:burst \\
        --nodes 8 --seed 42 --requests 400 --rate 8000 --out serve-report.json

Compose with chaos ("node dies under peak load — what happens to p99?")::

    python -m repro.serve --chaos fail-stop --crash-node 2 --crash-at-us 100000

Re-render a saved report::

    python -m repro.serve report serve-report.json

Exit status is nonzero when any tenant saw a result mismatch (serving
must never trade correctness for latency).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Tuple

from repro.apps.common import add_run_arguments
from repro.params import SimParams
from repro.serve.arrivals import parse_curve
from repro.serve.manager import ServeManager
from repro.serve.policy import POLICIES
from repro.serve.report import load_report, render_report
from repro.serve.tenant import TenantSpec

DEFAULT_TENANTS = "kmn:constant,grp:constant,blk:constant,scan:burst"


def _plan_placement(n_tenants: int, num_nodes: int) -> List[Tuple[int, ...]]:
    """Block-partition the nodes among the tenants (the bulkhead default:
    disjoint node sets when the rack is big enough, round-robin single
    nodes otherwise)."""
    if n_tenants <= num_nodes:
        chunk = num_nodes // n_tenants
        extra = num_nodes % n_tenants
        plans, nxt = [], 0
        for i in range(n_tenants):
            take = chunk + (1 if i < extra else 0)
            plans.append(tuple(range(nxt, nxt + take)))
            nxt += take
        return plans
    return [(i % num_nodes,) for i in range(n_tenants)]


def parse_tenants(spec: str, ns: argparse.Namespace) -> List[TenantSpec]:
    """``kind:curve[:name]`` comma-list -> TenantSpecs with block-
    partitioned node placement and the shared CLI knobs applied."""
    entries = [e.strip() for e in spec.split(",") if e.strip()]
    if not entries:
        raise ValueError("--tenants is empty")
    plans = _plan_placement(len(entries), ns.nodes)
    specs = []
    for i, entry in enumerate(entries):
        parts = entry.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(
                f"tenant spec {entry!r} is not kind:curve[:name]")
        kind, curve_kind = parts[0], parts[1]
        name = parts[2] if len(parts) == 3 else f"{kind}-{i}"
        curve = parse_curve(
            curve_kind, ns.rate, ns.requests,
            burst_at_us=ns.burst_at_us, burst_for_us=ns.burst_for_us,
            burst_x=ns.burst_x,
        )
        specs.append(TenantSpec(
            name=name, workload=kind, curve=curve, nodes=plans[i],
            workers_per_node=ns.workers_per_node,
            queue_capacity=ns.queue_capacity, policy=ns.policy,
            items=ns.items, request_items=ns.request_items,
            slo_p99_us=ns.slo_p99_us, seed=ns.seed + i,
        ))
    return specs


def _resolve_chaos(ns: argparse.Namespace, num_nodes: int):
    """Returns (SimParams fields, fail_stop) for the manager.  ``fail-stop``
    crashes a node ``--crash-at-us`` after *serving starts* (warm-up time
    varies with the tenant mix, so absolute times would be untenable)."""
    if not ns.chaos:
        return {}, None
    if ns.chaos != "fail-stop":
        # a scenario JSON path: the cluster loads it
        return {"chaos": ns.chaos}, None
    from repro.chaos import ChaosScenario

    node = ns.crash_node if ns.crash_node is not None else num_nodes - 1
    chaos = ChaosScenario(
        rules=[], seed=ns.seed, on_exclusive_loss=ns.loss_policy,
    )
    return {"chaos_scenario": chaos}, (node, ns.crash_at_us)


def cmd_run(ns: argparse.Namespace) -> int:
    try:
        specs = parse_tenants(ns.tenants, ns)
    except ValueError as err:
        ns.run_parser.error(str(err))
    want_export = bool(ns.trace_out)
    knobs, fail_stop = _resolve_chaos(ns, ns.nodes)
    if ns.scope or want_export:
        knobs["scope"] = "1"
    manager = ServeManager(
        specs,
        num_nodes=ns.nodes,
        seed=ns.seed,
        directory=ns.directory,
        params=SimParams(**knobs),
        fail_stop=fail_stop,
    )
    report = manager.run()
    if ns.out:
        with open(ns.out, "w") as fh:
            json.dump(report, fh, sort_keys=True, indent=2)
            fh.write("\n")
        print(f"wrote SLO report to {ns.out}")
    if want_export:
        from repro.obs.export import write_chrome_trace

        tracer = manager.cluster.tracer
        spans = tracer.spans if tracer is not None else []
        dropped = tracer.dropped if tracer is not None else 0
        counters = manager.cluster.scope.counter_events()
        count = write_chrome_trace(
            ns.trace_out, spans, dropped=dropped, counters=counters)
        print(f"wrote {count} trace events to {ns.trace_out} "
              "(open at ui.perfetto.dev)")
    if not ns.quiet:
        print(render_report(report))
    mismatches = sum(
        doc["counts"].get("mismatched", 0)
        for doc in report["tenants"].values()
    )
    if mismatches:
        print(f"ERROR: {mismatches} request(s) returned wrong results",
              file=sys.stderr)
        return 1
    return 0


def cmd_report(path: str) -> int:
    try:
        report = load_report(path)
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(render_report(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="multi-tenant DeX serving: open-loop load, admission "
                    "control, per-tenant SLO reporting",
    )
    parser.add_argument("--tenants", default=DEFAULT_TENANTS,
                        help="comma list of kind:curve[:name] "
                             f"(default {DEFAULT_TENANTS})")
    add_run_arguments(parser, "--nodes", "--seed", "--directory",
                      nodes=8, seed=42)
    parser.add_argument("--requests", type=int, default=400,
                        help="arrivals per tenant")
    parser.add_argument("--rate", type=float, default=8000.0,
                        help="base arrival rate per tenant, requests/s")
    parser.add_argument("--workers-per-node", type=int, default=2,
                        help="bulkhead: worker threads per serving node")
    parser.add_argument("--queue-capacity", type=int, default=32)
    parser.add_argument("--items", type=int, default=0,
                        help="working-set items per tenant (0 = kind default)")
    parser.add_argument("--request-items", type=int, default=0,
                        help="items per request (0 = kind default)")
    parser.add_argument("--policy", choices=tuple(POLICIES), default="reject")
    parser.add_argument("--slo-p99-us", type=float, default=2000.0)
    parser.add_argument("--burst-at-us", type=float, default=50_000.0)
    parser.add_argument("--burst-for-us", type=float, default=20_000.0)
    parser.add_argument("--burst-x", type=float, default=8.0)
    parser.add_argument("--chaos", default="",
                        help='"fail-stop" or a scenario JSON path')
    parser.add_argument("--crash-node", type=int, default=None,
                        help="fail-stop target (default: last node)")
    parser.add_argument("--crash-at-us", type=float, default=30_000.0,
                        help="fail-stop this long after serving starts")
    parser.add_argument("--loss-policy", choices=("fail", "rollback"),
                        default="rollback")
    parser.add_argument("--scope", action="store_true",
                        help="enable DexScope time-series sampling")
    parser.add_argument("--trace-out", default="",
                        help="write a Perfetto trace (implies --scope)")
    parser.add_argument("--out", default="", help="write the report JSON")
    parser.add_argument("--quiet", action="store_true")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "report":
        if len(argv) != 2:
            print("usage: python -m repro.serve report <report.json>",
                  file=sys.stderr)
            return 2
        return cmd_report(argv[1])
    if argv and argv[0] == "run":
        argv = argv[1:]
    return cmd_run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
