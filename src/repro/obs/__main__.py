"""DexTrace command line: run traced simulations, report, and export.

Subcommands::

    python -m repro.obs run      --app kmeans --nodes 4 --out spans.json
    python -m repro.obs report   --input spans.json
    python -m repro.obs report   --app BFS --nodes 8
    python -m repro.obs export   --app kmeans --nodes 4 --out trace.json
    python -m repro.obs top      --app kmeans --nodes 4 --interval-us 10000
    python -m repro.obs manifest --app KMN --nodes 4 --out dex-run.json
    python -m repro.obs diff     baseline.json candidate.json --check

``run`` saves the raw span log (``dextrace-spans-v1`` JSON), ``report``
prints the terminal timeline / top-spans / per-phase attribution views,
``export`` writes Chrome trace-event JSON for ui.perfetto.dev (pass
``--scope`` to merge the DexScope utilization series in as Perfetto
counter tracks), and ``top`` runs with the DexLens analytics on,
rendering live frames (hottest pages, worst ping-pong pairs, p50/p99
critical-path breakdown) every ``--interval-us`` of *simulated* time
plus a final summary frame.

``manifest`` runs with DexScope + DexLens on and writes the versioned
run manifest (``dex-run-v1``: params, seed, counters, latency
quantiles, critical-path phase totals, downsampled utilization series);
``diff`` compares two manifests — ranked per-metric deltas, dominant
critical-path phase, hottest directory shard — and with ``--check``
exits nonzero on a thresholded headline regression, a headline metric
absent from either side, or a candidate not ``correct`` (the CI trend
guard).  ``--app pagefault`` is a built-in 2-node atomic-add ping-pong
microbenchmark (§V-D) that needs no application workload.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.apps.common import RunSpec, add_run_arguments, positive_arg
from repro.obs.export import (
    check_all_traces,
    cross_node_traces,
    phase_totals,
    render_attribution,
    render_timeline,
    render_top_spans,
    write_chrome_trace,
)
from repro.obs.tracing import Span, load_spans
from repro.params import SimParams


def _spec(ns: argparse.Namespace) -> RunSpec:
    """The run this invocation names, traced; ``top`` / ``manifest`` /
    ``export --scope`` lay their lens and scope switches on top."""
    def switch(name: str) -> Optional[str]:
        return "1" if getattr(ns, name, False) else None

    return RunSpec.from_args(ns, base=SimParams(
        trace="1", lens=switch("lens"), scope=switch("scope"),
        lens_window_us=getattr(ns, "window_us", SimParams.lens_window_us),
    ))


def _run_on(cluster, spec: RunSpec, ns: argparse.Namespace):
    """Run *spec* on *cluster* (built by ``spec.cluster()``, so the caller
    can read ``.tracer``/``.lens``/``.scope`` off it afterwards); returns
    (AppResult or None for the micro, DexStats, label)."""
    if spec.micro:
        from repro.bench.experiments import pagefault_micro

        pagefault_micro(ns.duration_us, cluster.params, cluster=cluster)
        (proc,) = cluster.processes.values()
        return None, proc.stats, f"pagefault micro ({ns.duration_us:.0f}us)"
    result = spec.run(cluster=cluster)
    label = (
        f"{spec.app} {spec.variant} nodes={spec.nodes} scale={spec.scale}"
        f" elapsed={result.elapsed_us:.0f}us correct={result.correct}"
    )
    return result, result.stats, label


def _run(ns: argparse.Namespace):
    """(cluster, AppResult-or-None, stats, label) of a fresh run."""
    spec = _spec(ns)
    cluster = spec.cluster()
    return (cluster, *_run_on(cluster, spec, ns))


def _loaded(load, path: str):
    """``load(path)``, or the loader's one-line complaint and exit 2."""
    try:
        return load(path)
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        raise SystemExit(2)


def _load_or_run(ns: argparse.Namespace):
    """(spans, dropped, stats-or-None, label, cluster-or-None) from
    --input or a fresh run."""
    if ns.input:
        spans, meta = _loaded(load_spans, ns.input)
        return spans, int(meta.get("dropped", 0)), None, ns.input, None
    cluster, _, stats, label = _run(ns)
    tracer = cluster.tracer
    return tracer.spans, tracer.dropped, stats, label, cluster


# -- acceptance-style checks printed by report/export --------------------------


def _fault_tree_line(spans: Sequence[Span]) -> str:
    """The ISSUE acceptance check: one *connected* contended-write-fault
    tree crossing >= 3 nodes (requester -> home -> revoked victim)."""
    candidates = [
        r for r in cross_node_traces(spans, min_nodes=3)
        if any(s.name == "rx.page_invalidate" for s in r.spans)
        and any(s.name == "fault" and s.attrs.get("write") for s in r.spans)
    ]
    if candidates:
        best = max(candidates, key=lambda r: len(r.nodes))
        return f"contended write-fault tree: {best.format()}"
    connected = [r for r in check_all_traces(spans) if r.connected]
    widest = max((len(r.nodes) for r in connected), default=0)
    return (
        "contended write-fault tree: none crossing >=3 nodes "
        f"(widest connected trace touches {widest} node(s) — expected for "
        "<3-node runs or uncontended workloads)"
    )


def _migration_agreement_line(spans: Sequence[Span], stats) -> Optional[str]:
    """Attributed migration time must agree with the MigrationRecord log
    (Table II ground truth) within 1%."""
    if stats is None or not stats.migrations:
        return None
    expected = sum(r.total_us for r in stats.migrations)
    attributed = phase_totals(spans)["migration"]
    if expected <= 0:
        return None
    err = abs(attributed - expected) / expected
    status = "OK" if err <= 0.01 else "MISMATCH"
    return (
        f"migration attribution: {status} ({attributed:.1f}us attributed vs "
        f"{expected:.1f}us in {len(stats.migrations)} migration records, "
        f"err {err * 100:.2f}%)"
    )


def _summary(spans: Sequence[Span], dropped: int, label: str) -> str:
    line = f"{label}: {len(spans)} spans"
    if dropped:
        line += f" (INCOMPLETE: {dropped} spans dropped past max_spans)"
    return line


# -- subcommands ---------------------------------------------------------------


def cmd_run(ns: argparse.Namespace) -> int:
    cluster, _, _, label = _run(ns)
    tracer = cluster.tracer
    out = ns.out or "dex-spans.json"
    tracer.save_json(out)
    print(_summary(tracer.spans, tracer.dropped, label))
    print(f"wrote span log to {out}")
    return 0


def cmd_report(ns: argparse.Namespace) -> int:
    spans, dropped, stats, label, _ = _load_or_run(ns)
    print(_summary(spans, dropped, label))
    print()
    print(render_timeline(spans, limit=ns.limit))
    print()
    print(render_top_spans(spans))
    print()
    print(render_attribution(spans))
    print()
    print(_fault_tree_line(spans))
    agreement = _migration_agreement_line(spans, stats)
    if agreement:
        print(agreement)
    return 0


def cmd_export(ns: argparse.Namespace) -> int:
    spans, dropped, stats, label, cluster = _load_or_run(ns)
    counters = None
    if cluster is not None and cluster.scope is not None:
        # --scope run: merge the utilization series as counter tracks
        counters = cluster.scope.counter_events()
    out = ns.out or "dextrace.json"
    count = write_chrome_trace(out, spans, dropped=dropped, counters=counters)
    print(_summary(spans, dropped, label))
    print(f"wrote {count} trace events to {out} (open at ui.perfetto.dev)")
    if counters:
        print(f"merged {len(counters)} DexScope counter-track events")
    print(_fault_tree_line(spans))
    agreement = _migration_agreement_line(spans, stats)
    if agreement:
        print(agreement)
    return 0


def cmd_manifest(ns: argparse.Namespace) -> int:
    """One run with DexScope (and by default DexLens) on, captured as the
    versioned ``dex-run-v1`` manifest that ``diff`` compares."""
    from repro.obs.manifest import build_manifest, write_manifest

    cluster, result, _, _ = _run(ns)
    doc = build_manifest(
        result, cluster, scope=cluster.scope, lens=cluster.lens,
        label=ns.label,
    )
    out = ns.out or "dex-run.json"
    write_manifest(out, doc)
    print(
        f"wrote {out}: {doc['label']} "
        f"(sim {doc['result']['sim_time_us']:.0f}us, "
        f"{len(doc['series'])} series, {len(doc['counters'])} counters, "
        f"correct={doc['result']['correct']})"
    )
    return 0


def cmd_diff(ns: argparse.Namespace) -> int:
    """Compare two run manifests."""
    from repro.obs.diff import diff_manifests, format_report
    from repro.obs.manifest import load_manifest

    if not ns.a or not ns.b:
        raise SystemExit("diff needs two manifest paths")
    report = diff_manifests(
        _loaded(load_manifest, ns.a), _loaded(load_manifest, ns.b),
        threshold=ns.threshold,
    )
    print(format_report(report, limit=ns.limit))
    return 1 if ns.check and (report.regressed or report.unchecked) else 0


def cmd_top(ns: argparse.Namespace) -> int:
    """Run with DexLens on and a live terminal view attached: frames print
    as *simulated* time crosses each --interval-us boundary (rendered from
    span-close callbacks — nothing is scheduled on the engine), then a
    final end-of-run summary frame."""
    from repro.obs.lens import TopView

    spec = _spec(ns)
    cluster = spec.cluster()
    lens, tracer = cluster.lens, cluster.tracer
    view = TopView(
        lens.feed, interval_us=ns.interval_us, limit=ns.limit,
        stream=sys.stdout,
    )
    cluster.engine.add_hook(view)
    _, _, label = _run_on(cluster, spec, ns)
    print()
    print(_summary(tracer.spans, tracer.dropped, label))
    view.render()  # final frame at end-of-run state
    evicted = {k: v for k, v in lens.feed.evicted.items() if v}
    if evicted:
        print(f"note: memory cap evicted keys: {evicted} "
              "(raise LensFeed max_keys)")
    return 0


def _add_workload_args(p: argparse.ArgumentParser,
                       micro: Optional[str] = "pagefault") -> None:
    add_run_arguments(
        p, "--app", "--variant", "--nodes", "--scale", "--directory",
        "--app-arg", micro=micro, app="kmeans", nodes=4, directory="origin",
    )
    p.add_argument("--duration-us", type=positive_arg, default=20_000.0,
                   help="pagefault micro duration (ignored for apps)")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="DexTrace: run traced simulations, report, export.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run traced, save the raw span log")
    _add_workload_args(p_run)
    p_run.add_argument("--out", help="span-log path (default dex-spans.json)")
    p_run.set_defaults(fn=cmd_run)

    p_report = sub.add_parser("report", help="terminal timeline/attribution")
    _add_workload_args(p_report)
    p_report.add_argument("--input", help="saved span log instead of a run")
    p_report.add_argument("--limit", type=int, default=40,
                          help="timeline rows (default 40)")
    p_report.set_defaults(fn=cmd_report)

    p_export = sub.add_parser("export", help="Chrome trace JSON for Perfetto")
    _add_workload_args(p_export)
    p_export.add_argument("--input", help="saved span log instead of a run")
    p_export.add_argument("--out", help="output path (default dextrace.json)")
    p_export.add_argument("--scope", action="store_true",
                          help="sample with DexScope and merge the series "
                          "as Perfetto counter tracks")
    p_export.set_defaults(fn=cmd_export)

    p_manifest = sub.add_parser(
        "manifest", help="run with DexScope+DexLens, write dex-run.json"
    )
    # a manifest captures an application run: no micro here
    _add_workload_args(p_manifest, micro=None)
    p_manifest.add_argument("--out", help="manifest path (default dex-run.json)")
    p_manifest.add_argument("--label", default="",
                            help="label recorded in the manifest")
    p_manifest.add_argument("--no-lens", dest="lens", action="store_false",
                            help="skip the critical-path phase section")
    p_manifest.set_defaults(fn=cmd_manifest, lens=True, scope=True)

    p_diff = sub.add_parser(
        "diff", help="compare two run manifests; --check for CI guarding"
    )
    p_diff.add_argument("a", nargs="?", help="baseline manifest")
    p_diff.add_argument("b", nargs="?", help="candidate manifest")
    p_diff.add_argument("--threshold", type=float, default=0.10,
                        help="relative regression threshold (default 0.10)")
    p_diff.add_argument("--limit", type=int, default=20,
                        help="ranked delta rows shown (default 20)")
    p_diff.add_argument("--check", action="store_true",
                        help="exit nonzero when a headline metric regressed, "
                        "is missing, or the candidate is not correct")
    p_diff.set_defaults(fn=cmd_diff)

    p_top = sub.add_parser("top", help="live DexLens view (hot pages, "
                           "ping-pong pairs, critical-path p50/p99)")
    _add_workload_args(p_top)
    p_top.add_argument("--interval-us", type=positive_arg, default=10_000.0,
                       help="sim-time between live frames (default 10000)")
    p_top.add_argument("--limit", type=int, default=8,
                       help="rows per table (default 8)")
    p_top.add_argument("--window-us", type=positive_arg, default=5_000.0,
                       help="heat-stat sliding window (default 5000)")
    p_top.set_defaults(fn=cmd_top, lens=True)

    ns = parser.parse_args(argv)
    return ns.fn(ns)


if __name__ == "__main__":
    sys.exit(main())
