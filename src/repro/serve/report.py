"""Per-tenant SLO reporting for DexServe runs.

:func:`build_report` turns a finished :class:`ServeManager` run into a
plain-JSON dict — per-tenant p50/p99/p999 (from the metrics registry's
``quantiles()``), goodput/throughput, SLO attainment, admission
decisions, and (when chaos was active) an attribution section tying the
p99 spike to the failed node's tenants.  Every number is a pure function
of simulated time, so the same seed produces a byte-identical document
(``json.dumps(..., sort_keys=True)``).

:func:`render_report` prints the same document as the fixed-width table
the ``serve report`` CLI shows.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.obs.tracing import load_artifact

from .arrivals import curve_window

SCHEMA = "dex-serve-report/v1"


def _sample_p99(samples: List[Tuple[float, float]],
                lo: float, hi: float) -> Any:
    """p99 latency of the samples finishing in ``[lo, hi)`` (None when
    the window is empty).  Exact nearest-rank over the sorted window —
    small windows, no numpy dependence on platform quirks."""
    window = sorted(lat for (t, lat) in samples if lo <= t < hi)
    if not window:
        return None
    rank = max(int(len(window) * 0.99) - 1, 0)
    return round(window[rank], 3)


def build_report(manager: Any) -> Dict[str, Any]:
    cluster = manager.cluster
    start = manager._serve_start_us
    duration_us = cluster.engine.now - start
    duration_s = duration_us / 1e6 if duration_us > 0 else 1e-9
    report: Dict[str, Any] = {
        "schema": SCHEMA,
        "seed": manager.seed,
        "num_nodes": cluster.num_nodes,
        "directory": cluster.params.directory,
        "serve_start_us": round(start, 3),
        "duration_us": round(duration_us, 3),
        "tenants": {},
    }

    for tenant in manager.tenants:
        spec = tenant.spec
        counts = tenant.counts()
        qs = tenant._latency.quantiles(50, 99, 99.9)
        wait_qs = tenant._queue_wait.quantiles(50, 99)
        completed, within_slo = counts["completed"], tenant.within_slo
        doc: Dict[str, Any] = {
            "workload": spec.workload,
            "nodes": list(spec.nodes),
            "workers_per_node": spec.workers_per_node,
            "policy": spec.policy,
            "curve": spec.curve.kind,
            "requests": spec.curve.requests,
            "counts": counts,
            "latency_us": {
                "p50": round(qs["p50"], 3),
                "p99": round(qs["p99"], 3),
                "p999": round(qs["p999"], 3),
                "mean": round(tenant._latency.mean, 3),
                "max": round(tenant._latency.max, 3) if completed else None,
                "count": tenant._latency.count,
            },
            "queue_wait_us": {
                "p50": round(wait_qs["p50"], 3),
                "p99": round(wait_qs["p99"], 3),
            },
            "queue_depth_hwm": tenant.depth_hwm(),
            "throughput_rps": round(completed / duration_s, 3),
            "goodput_rps": round(within_slo / duration_s, 3),
            "slo": {
                "target_p99_us": spec.slo_p99_us,
                "attainment": round(within_slo / completed, 4)
                if completed else 0.0,
            },
        }
        if spec.curve.shape.bursty:
            # p99 before / during / after the burst window, from the
            # per-request samples (windows in absolute sim time)
            b_lo, b_hi = curve_window(spec.curve)
            b_lo, b_hi = start + b_lo, start + b_hi
            doc["burst_window"] = {
                "p99_before": _sample_p99(tenant.samples, start, b_lo),
                "p99_during": _sample_p99(tenant.samples, b_lo, b_hi),
                "p99_after": _sample_p99(
                    tenant.samples, b_hi, start + duration_us + 1.0),
            }
        report["tenants"][spec.name] = doc

    chaos = cluster.chaos
    if chaos is not None:
        failed = sorted(chaos.failed | chaos.crashed)
        impacted = sorted(
            t.spec.name for t in manager.tenants
            if set(t.spec.nodes) & set(failed)
        )
        crash_times = [t for (t, what) in chaos.events if "fail-stop" in what]
        first_crash = min(crash_times) if crash_times else None
        attribution: Dict[str, Any] = {}
        if first_crash is not None:
            end = start + duration_us + 1.0
            for tenant in manager.tenants:
                before = _sample_p99(tenant.samples, start, first_crash)
                after = _sample_p99(tenant.samples, first_crash, end)
                attribution[tenant.spec.name] = {
                    "impacted": tenant.spec.name in impacted,
                    "p99_before_crash": before,
                    "p99_after_crash": after,
                }
        report["chaos"] = {
            "crashed_nodes": sorted(chaos.crashed),
            "failed_nodes": sorted(chaos.failed),
            "first_crash_us": round(first_crash, 3)
            if first_crash is not None else None,
            "impacted_tenants": impacted,
            "attribution": attribution,
            "events": [f"t={t:.1f}us {what}" for t, what in chaos.events],
        }
    return report


def _fmt(value: Any, width: int = 9) -> str:
    if value is None:
        return "-".rjust(width)
    if isinstance(value, float):
        return f"{value:.1f}".rjust(width)
    return str(value).rjust(width)


def render_report(report: Dict[str, Any]) -> str:
    """The ``serve report`` table: one row per tenant, then chaos
    attribution when present."""
    lines = [
        f"DexServe SLO report — seed {report['seed']}, "
        f"{report['num_nodes']} nodes, directory={report['directory']}, "
        f"{len(report['tenants'])} tenant(s), "
        f"{report['duration_us'] / 1000.0:.2f} ms served",
        f"{'tenant':<12} {'kind':<5} {'curve':<9} {'policy':<13}"
        f"{'requests':>9} {'done':>9} {'rej':>7} {'shed':>7} {'thr':>7}"
        f" {'fail':>7} {'p50us':>9} {'p99us':>9} {'p999us':>9}"
        f" {'goodput':>9} {'slo%':>7}",
    ]
    for name in sorted(report["tenants"]):
        doc = report["tenants"][name]
        counts = doc["counts"]
        lat = doc["latency_us"]
        lines.append(
            f"{name:<12} {doc['workload']:<5} {doc['curve']:<9} "
            f"{doc['policy']:<12}"
            f"{_fmt(doc['requests'])} {_fmt(counts['completed'])}"
            f" {_fmt(counts['rejected'], 7)} {_fmt(counts['shed'], 7)}"
            f" {_fmt(counts['throttled'], 7)} {_fmt(counts['failed'], 7)}"
            f" {_fmt(lat['p50'])} {_fmt(lat['p99'])} {_fmt(lat['p999'])}"
            f" {_fmt(doc['goodput_rps'])}"
            f" {_fmt(doc['slo']['attainment'] * 100.0, 7)}"
        )
        burst = doc.get("burst_window")
        if burst:
            lines.append(
                f"{'':<12} burst p99: before={_fmt(burst['p99_before'], 1)}"
                f" during={_fmt(burst['p99_during'], 1)}"
                f" after={_fmt(burst['p99_after'], 1)} (us)"
            )
    chaos = report.get("chaos")
    if chaos:
        lines.append(
            f"chaos: crashed={chaos['crashed_nodes']} "
            f"failed={chaos['failed_nodes']} "
            f"first_crash={chaos['first_crash_us']}us "
            f"impacted={', '.join(chaos['impacted_tenants']) or 'none'}"
        )
        for name in sorted(chaos.get("attribution", {})):
            att = chaos["attribution"][name]
            marker = "IMPACTED" if att["impacted"] else "ok"
            lines.append(
                f"  {name:<12} p99 before crash={_fmt(att['p99_before_crash'], 1)}us"
                f" after={_fmt(att['p99_after_crash'], 1)}us [{marker}]"
            )
    return "\n".join(lines)


def load_report(path: str) -> Dict[str, Any]:
    """A saved report; ``ValueError`` for a file that is not a whole one —
    anything :func:`render_report` cannot show."""
    report = load_artifact(path, "a DexServe report", "schema", SCHEMA)
    try:
        render_report(report)
    except (KeyError, TypeError, AttributeError) as err:
        raise ValueError(f"{path!r}: malformed report ({err!r})") from err
    return report
