"""Tests for the profiling toolchain (§IV)."""

import numpy as np
import pytest

from repro.runtime import MemoryAllocator
from repro.runtime.array import alloc_array
from repro.tools import FaultTracer, TraceAnalysis
from repro.tools.tracer import FaultEvent

from conftest import make_cluster

GLOBALS = 0x1000_0000


def traced_run():
    """A run with known contention: all workers hammer one counter page
    (site 'hot') and privately fill page-aligned slices (site 'cold')."""
    cluster = make_cluster()
    proc = cluster.create_process()
    alloc = MemoryAllocator(proc)
    tracer = FaultTracer()
    proc.add_hook(tracer)
    counter = alloc.alloc_global(8, tag="counter")
    private = [alloc_array(alloc, np.int64, 512, page_aligned=True,
                           name=f"buf{n}") for n in range(4)]

    gate = cluster.engine.event()

    def worker(ctx, node):
        yield from ctx.migrate(node)
        yield gate  # start together so the counter page really contends
        for i in range(6):
            yield from ctx.atomic_add_i64(counter, 1, site="hot")
            yield from private[node].write(
                ctx, 0, np.full(512, i, dtype=np.int64), site="cold"
            )
            yield from ctx.compute(cpu_us=5.0)
        yield from ctx.migrate_back()

    threads = [proc.spawn_thread(worker, n) for n in range(4)]

    def main(ctx):
        yield ctx.engine.timeout(10_000.0)
        gate.succeed()
        yield from proc.join_all(threads)

    cluster.simulate(main, proc)
    return tracer, proc


def test_tracer_collects_six_tuples():
    tracer, _ = traced_run()
    assert len(tracer) > 0
    event = tracer.events[0]
    assert event.fault_type in ("read", "write", "invalidate")
    assert event.time_us >= 0
    assert event.addr > 0


def test_hottest_site_is_the_contended_counter():
    tracer, _ = traced_run()
    analysis = TraceAnalysis(tracer)
    sites = dict(analysis.hottest_sites())
    assert sites["hot"] > sites.get("cold", 0)


def test_false_sharing_detector_flags_counter_page_only():
    tracer, _ = traced_run()
    analysis = TraceAnalysis(tracer)
    flagged = analysis.false_sharing_candidates()
    assert flagged, "the counter page must be flagged"
    hot_vpns = {r.vpn for r in flagged}
    assert GLOBALS // 4096 in hot_vpns
    top = flagged[0]
    assert len(top.writer_nodes) > 1
    # the private page-aligned buffers must NOT be flagged: each is only
    # ever written by one node (reads by node 0 at fill time are fine)
    for report in flagged:
        assert len(report.writer_nodes) > 1 or report.reader_nodes


def test_fault_rate_over_time_buckets():
    tracer, _ = traced_run()
    analysis = TraceAnalysis(tracer)
    histogram = analysis.fault_rate_over_time(bucket_us=500.0)
    assert histogram
    assert sum(count for _, count in histogram) == sum(
        1 for e in tracer if e.fault_type != "invalidate"
    )
    times = [t for t, _ in histogram]
    assert times == sorted(times)


def test_per_thread_pattern():
    tracer, _ = traced_run()
    analysis = TraceAnalysis(tracer)
    patterns = analysis.per_thread_pattern()
    assert len(patterns) >= 4
    for stats in patterns.values():
        assert stats["distinct_pages"] >= 1


def test_report_renders():
    tracer, _ = traced_run()
    text = TraceAnalysis(tracer).report()
    assert "fault trace" in text
    assert "hot" in text


def test_csv_roundtrip(tmp_path):
    tracer, _ = traced_run()
    path = str(tmp_path / "trace.csv")
    tracer.save_csv(path)
    loaded = FaultTracer.load_csv(path)
    assert len(loaded) == len(tracer)
    assert loaded.events[0] == tracer.events[0]


def test_tracer_caps_events():
    tracer = FaultTracer(max_events=2)
    tracer.record(0.0, 0, 0, "read", "s", 0)
    tracer.record(1.0, 0, 0, "read", "s", 4096)
    # the first drop warns (once); further drops are silent
    with pytest.warns(RuntimeWarning, match="max_events=2"):
        tracer.record(2.0, 0, 0, "read", "s", 8192)
    for i in range(3, 5):
        tracer.record(float(i), 0, 0, "read", "s", i * 4096)
    assert len(tracer) == 2
    assert tracer.dropped == 3
    tracer.clear()
    assert len(tracer) == 0 and tracer.dropped == 0


def test_invalid_bucket_rejected():
    analysis = TraceAnalysis(FaultTracer())
    try:
        analysis.fault_rate_over_time(bucket_us=0)
        raised = False
    except ValueError:
        raised = True
    assert raised


def test_the_example_hands_its_trace_to_the_cli(tmp_path, monkeypatch, capsys):
    """The §IV workflow as the README spells it: the example profiles its
    bad histogram and leaves ``trace.csv``; ``python -m repro.tools`` on
    that file names the same falsely shared page and says how to fix it."""
    import re
    import runpy
    from pathlib import Path

    from repro.tools.__main__ import main as tools_cli

    example = (Path(__file__).resolve().parent.parent
               / "examples" / "profile_and_optimize.py")
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(example), run_name="__main__")
    said = capsys.readouterr().out
    (page,) = re.findall(r"-> page (0x[0-9a-f]+) is written from nodes", said)
    assert tools_cli(["trace.csv"]) == 0
    report = capsys.readouterr().out
    assert "false-sharing candidates" in report
    flagged = report[report.index("false-sharing candidates"):]
    assert page in flagged and "histogram:add" in report
    assert "posix_memalign" in report  # the advisor's remedy for it
