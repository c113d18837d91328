"""Exporters: per-phase attribution, Chrome trace JSON, and the CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import DexCluster, SimParams
from repro.obs.export import (
    attribution,
    chrome_trace,
    phase_of,
    phase_totals,
    render_attribution,
    render_timeline,
    render_top_spans,
    write_chrome_trace,
)
from repro.obs.tracing import Span, load_spans
from repro.runtime import MemoryAllocator

REPO_ROOT = Path(__file__).resolve().parents[1]


def S(name, sid, trace, parent, node, tid, start, end, **attrs):
    return Span(name, sid, trace, parent, node, tid, start, end, attrs)


def _traced_run():
    """A 2-node run with migrations and remote write faults."""
    cluster = DexCluster(num_nodes=2, params=SimParams(trace="1"))
    proc = cluster.create_process()
    alloc = MemoryAllocator(proc)
    var = alloc.alloc_global(8, tag="hot")

    def worker(ctx):
        yield from ctx.migrate(1)
        for i in range(4):
            yield from ctx.atomic_add_i64(var, 1, site="w")
            yield from ctx.compute(cpu_us=2.0)
        yield from ctx.migrate_back()

    def main(ctx):
        t = ctx.spawn(worker)
        for i in range(4):
            yield from ctx.atomic_add_i64(var, 1, site="m")
            yield from ctx.compute(cpu_us=2.0)
        yield from ctx.join(t)

    cluster.simulate(main, proc)
    return cluster, proc


# -- attribution ---------------------------------------------------------------


def test_phase_of_mapping():
    assert phase_of("fault") == ("fault_wait", 4)
    assert phase_of("fault.acquire") == ("fault_wait", 4)
    assert phase_of("futex.wait") == ("futex", 5)
    assert phase_of("migration.forward") == ("migration", 3)
    assert phase_of("delegation.call") == ("delegation", 2)
    assert phase_of("compute") == ("compute", 1)
    assert phase_of("net.send") is None
    assert phase_of("rx.page_request") is None


def test_attribution_priority_sweep_avoids_double_counting():
    spans = [
        S("compute", 1, 1, None, 0, 1, 0.0, 100.0),
        S("fault", 2, 1, 1, 0, 1, 10.0, 30.0),
        S("futex.wait", 3, 1, 2, 0, 1, 15.0, 20.0),
    ]
    per_tid = attribution(spans)
    row = per_tid[1]
    assert row["futex"] == pytest.approx(5.0)
    assert row["fault_wait"] == pytest.approx(15.0)
    assert row["compute"] == pytest.approx(80.0)
    assert sum(row.values()) == pytest.approx(100.0)  # no double counting


def test_attribution_excludes_service_spans():
    spans = [
        S("compute", 1, 1, None, 0, 1, 0.0, 10.0),
        S("migration.remote_worker", 2, 1, 1, 1, -1, 0.0, 500.0),
        S("unclosed", 3, 1, 1, 0, 1, 0.0, None),
    ]
    totals = phase_totals(spans)
    assert totals["migration"] == 0.0  # tid=-1 service work not attributed
    assert totals["compute"] == pytest.approx(10.0)


def test_migration_attribution_agrees_with_records():
    # the ISSUE acceptance bar: attributed migration time within 1% of the
    # MigrationRecord ground truth (Table II's source)
    cluster, proc = _traced_run()
    assert proc.stats.migrations
    expected = sum(r.total_us for r in proc.stats.migrations)
    attributed = phase_totals(cluster.tracer.spans)["migration"]
    assert attributed == pytest.approx(expected, rel=0.01)


# -- terminal renders ----------------------------------------------------------


def test_terminal_renders_are_nonempty():
    cluster, _ = _traced_run()
    spans = cluster.tracer.spans
    assert "timeline for trace" in render_timeline(spans)
    assert "top spans by total time" in render_top_spans(spans)
    text = render_attribution(spans)
    assert "fault_wait" in text and "migration" in text


# -- Chrome trace JSON ---------------------------------------------------------


def test_chrome_trace_structure():
    cluster, _ = _traced_run()
    spans = cluster.tracer.spans
    doc = chrome_trace(spans)
    events = doc["traceEvents"]
    # one process_name metadata record per node
    names = {e["pid"]: e["args"]["name"]
             for e in events if e["name"] == "process_name"}
    assert names == {0: "node 0", 1: "node 1"}
    slices = [e for e in events if e["ph"] == "X"]
    assert len(slices) == len(spans)
    for e in slices:
        assert e["dur"] >= 0.0
        assert e["pid"] in (0, 1)
        assert "trace" in e["args"] and "span" in e["args"]
    # app threads on their tid lanes, service work on lanes >= 1000
    lanes = {e["tid"] for e in slices}
    assert lanes & {0, 1}
    assert any(lane >= 1000 for lane in lanes)


def test_chrome_trace_flow_arrows_pair_up():
    cluster, _ = _traced_run()
    doc = chrome_trace(cluster.tracer.spans)
    starts = {e["id"]: e for e in doc["traceEvents"]
              if e["ph"] == "s" and e["cat"] == "flow"}
    finishes = {e["id"]: e for e in doc["traceEvents"]
                if e["ph"] == "f" and e["cat"] == "flow"}
    assert starts and set(starts) == set(finishes)
    for fid, s in starts.items():
        f = finishes[fid]
        assert s["pid"] != f["pid"]       # arrows only across nodes
        assert s["ts"] <= f["ts"] + 1e-9  # emission before arrival
        assert f["bp"] == "e"


def test_flow_start_clamped_into_parent_slice():
    parent = S("net.send", 1, 1, None, 0, -1, 0.0, 10.0)
    child = S("rx.page_request", 2, 1, 1, 1, -1, 12.0, 15.0)
    doc = chrome_trace([parent, child])
    (s,) = [e for e in doc["traceEvents"] if e["ph"] == "s"]
    (f,) = [e for e in doc["traceEvents"] if e["ph"] == "f"]
    assert s["ts"] == 10.0  # clamped to the parent's end
    assert f["ts"] == 12.0


def test_write_chrome_trace_roundtrip(tmp_path):
    cluster, _ = _traced_run()
    out = tmp_path / "trace.json"
    count = write_chrome_trace(str(out), cluster.tracer.spans, dropped=7)
    doc = json.loads(out.read_text())
    assert len(doc["traceEvents"]) == count
    assert doc["otherData"]["spans_dropped"] == 7


def test_span_log_roundtrip(tmp_path):
    cluster, _ = _traced_run()
    path = tmp_path / "spans.json"
    cluster.tracer.save_json(str(path))
    spans, meta = load_spans(str(path))
    assert len(spans) == len(cluster.tracer.spans)
    assert meta["dropped"] == 0
    first = cluster.tracer.spans[0]
    assert spans[0].to_dict() == first.to_dict()


# -- the CLI -------------------------------------------------------------------


def _cli(*args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.obs", *args],
        capture_output=True, text=True, env=env, cwd=cwd,
    )


def test_cli_export_pagefault(tmp_path):
    result = _cli(
        "export", "--app", "pagefault", "--app-arg", "duration_us=1200",
        "--out", "pf.json", cwd=tmp_path,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "wrote" in result.stdout and "ui.perfetto.dev" in result.stdout
    doc = json.loads((tmp_path / "pf.json").read_text())
    assert doc["traceEvents"]
    assert "migration attribution: OK" in result.stdout


def test_cli_run_then_report_from_input(tmp_path):
    cluster, _ = _traced_run()
    path = tmp_path / "spans.json"
    cluster.tracer.save_json(str(path))
    result = _cli("report", "--input", str(path), cwd=tmp_path)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "per-phase time attribution" in result.stdout
    assert "top spans by total time" in result.stdout
