"""Run manifests: one JSON document that captures a whole run.

A manifest (``dex-run.json``) is the durable record DexScope leaves
behind: the resolved parameters and seed, the final counter totals, the
fault-latency histograms (full bucket state, so quantiles recompute
offline), the DexLens critical-path phase totals, and the downsampled
utilization time series.  Two manifests are enough to answer "what
changed between these runs, and why" — that comparison is
:mod:`repro.obs.diff`, wired into CI as a trend guard.

Everything in a manifest derives from simulation state: no wall-clock
timestamps, no host identifiers, so two runs of the same build produce
byte-identical manifests (CI diffs them against a checked-in baseline).

Build one after a run::

    params = SimParams(scope="1")
    cluster = DexCluster(params=params)
    result = run_point("KMN", "optimized", 4, params=params, cluster=cluster)
    doc = build_manifest(result, cluster, scope=cluster.scope)
    write_manifest("dex-run.json", doc)

or from the CLI: ``python -m repro.obs manifest --app KMN ...``.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, Optional

from repro.obs.metrics import Histogram
from repro.obs.tracing import load_artifact

__all__ = [
    "MANIFEST_FORMAT",
    "build_manifest",
    "load_manifest",
    "write_manifest",
]

MANIFEST_FORMAT = "dex-run-v1"

#: quantile points recorded for every histogram section
_QUANTILES = (50, 90, 99, 99.9)


def _params_dict(params: Any) -> Dict[str, Any]:
    """Simple-typed SimParams fields only (a programmatic chaos scenario
    isn't JSON and isn't an input a diff can meaningfully compare)."""
    out: Dict[str, Any] = {}
    for field in dataclasses.fields(params):
        value = getattr(params, field.name)
        if value is None or isinstance(value, (bool, int, float, str)):
            out[field.name] = value
    return out


def _hist_section(hist: Histogram) -> Dict[str, Any]:
    doc = hist.to_dict()
    doc["mean"] = hist.mean
    doc.update(hist.quantiles(*_QUANTILES))
    return doc


def build_manifest(
    result: Any,
    cluster: Any,
    *,
    scope: Any = None,
    lens: Any = None,
    label: str = "",
) -> Dict[str, Any]:
    """Assemble the manifest document for one finished run.

    *result* is the app's :class:`~repro.apps.common.AppResult`; *cluster*
    the cluster it ran on.  *scope* adds the ``series`` section, *lens* the
    critical-path ``phases`` section; both are optional — a manifest
    without them still diffs on counters and latency quantiles.
    """
    params = cluster.params
    procs = list(cluster.processes.values())

    counters: Dict[str, float] = {}
    directory: Dict[str, int] = {}
    fault_all: Optional[Histogram] = None
    fault_by_mode: Dict[str, Histogram] = {}
    for proc in procs:
        proc.stats.registry.counter_totals(counters)
        for home, served in proc.stats.directory_requests.items():
            key = str(home)
            directory[key] = directory.get(key, 0) + served
        fault = proc.stats.fault_latency
        fault_all = fault.merge_into(fault_all)
        for mode, child in fault.per_label().items():
            fault_by_mode[mode] = child.merge_into(fault_by_mode.get(mode))

    net = cluster.net
    counters["net_messages_sent"] = net.messages_sent
    counters["net_page_payloads"] = net.page_payloads
    counters["net_loopback_deliveries"] = net.loopback_deliveries
    if cluster.chaos is not None:
        cluster.chaos.metrics.counter_totals(counters)

    doc: Dict[str, Any] = {
        "format": MANIFEST_FORMAT,
        "label": label or f"{result.app}-{result.variant}@{result.num_nodes}",
        "app": result.app,
        "variant": result.variant,
        "nodes": result.num_nodes,
        "threads": result.num_threads,
        "backend": params.directory,
        "seed": params.seed,
        "params": _params_dict(params),
        "result": {
            "elapsed_us": result.elapsed_us,
            "sim_time_us": cluster.engine.now,
            "events_dispatched": cluster.engine.events_dispatched,
            "correct": result.correct,
        },
        "counters": counters,
        "directory_requests": directory,
        "quantiles": {},
        "phases": {},
        "series": {},
    }

    if fault_all is not None:
        doc["quantiles"]["fault_latency_us"] = {
            "overall": _hist_section(fault_all),
            "by_mode": {
                mode: _hist_section(hist)
                for mode, hist in sorted(fault_by_mode.items())
            },
        }

    if lens is not None:
        doc["phases"] = {
            phase: _hist_section(hist)
            for phase, hist in sorted(lens.feed.phase_histograms().items())
        }
        doc["trees_completed"] = lens.feed.trees_completed

    if scope is not None:
        doc["series"] = scope.series_dict()
        doc["scope"] = {
            "interval_us": scope.interval_us,
            "samples": scope.samples,
            "series_dropped": scope.series_dropped,
        }

    return doc


def write_manifest(path: str, doc: Dict[str, Any]) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=False)
        fh.write("\n")


def load_manifest(path: str) -> Dict[str, Any]:
    """Load and validate a manifest; raises ``ValueError`` for files that
    aren't run manifests (wrong tool output, corrupted artifacts)."""
    return load_artifact(path, "a run manifest", "format", MANIFEST_FORMAT)
