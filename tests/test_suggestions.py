"""Tests for the §IV optimization advisor and the tools CLI."""

import numpy as np

from repro.runtime import MemoryAllocator
from repro.runtime.array import alloc_array
from repro.tools import FaultTracer, TraceAnalysis
from repro.tools.suggestions import OptimizationAdvisor, Suggestion
from repro.tools.tracer import FaultEvent

from conftest import make_cluster


def synthetic_trace(events):
    tracer = FaultTracer()
    for e in events:
        tracer.record(*e)
    return TraceAnalysis(tracer)


def test_split_page_rule():
    """Multiple writer nodes + multiple sites on one page -> split."""
    events = []
    for i in range(20):
        node = 1 + i % 3
        events.append((float(i), node, node, "write", f"site{node}",
                       0x5000 + node * 64, "heap"))
    advisor = OptimizationAdvisor(synthetic_trace(events), min_faults=5)
    kinds = {s.kind for s in advisor.suggest()}
    assert "split_page" in kinds


def test_stage_locally_rule():
    """One site, many writer nodes -> a global counter: stage locally."""
    events = [
        (float(i), 1 + i % 4, i % 8, "write", "counter:add", 0x9000, "globals")
        for i in range(30)
    ]
    advisor = OptimizationAdvisor(synthetic_trace(events), min_faults=5)
    kinds = {s.kind for s in advisor.suggest()}
    assert "stage_locally" in kinds


def test_separate_read_only_rule():
    """Many reader nodes, one writer -> move read-mostly data away."""
    events = [(float(i), 1 + i % 4, i, "read", "params", 0x7000, "globals")
              for i in range(24)]
    events += [(100.0 + i, 5, 0, "write", "bookkeeping", 0x7010, "globals")
               for i in range(6)]
    advisor = OptimizationAdvisor(synthetic_trace(events), min_faults=5)
    kinds = {s.kind for s in advisor.suggest()}
    assert "separate_read_only" in kinds


def test_hoist_stack_rule():
    events = [(float(i), 1 + i % 3, i, "read", "region_args", 0xA000,
               "stack:master") for i in range(15)]
    advisor = OptimizationAdvisor(synthetic_trace(events), min_faults=5)
    kinds = {s.kind for s in advisor.suggest()}
    assert "hoist_stack" in kinds


def test_quiet_trace_yields_nothing():
    advisor = OptimizationAdvisor(synthetic_trace([]), min_faults=5)
    assert advisor.suggest() == []
    assert "no optimization opportunities" in advisor.report()


def test_suggestions_sorted_by_severity():
    events = [(float(i), 1 + i % 2, i, "write", "hot", 0x1000, "heap")
              for i in range(40)]
    events += [(float(i), 1 + i % 2, i, "write", "warm", 0x2000, "heap")
               for i in range(10)]
    # two sites per page so split_page fires on both pages
    events += [(500.0, 2, 0, "write", "hot2", 0x1040, "heap"),
               (501.0, 1, 0, "write", "warm2", 0x2040, "heap")]
    advisor = OptimizationAdvisor(synthetic_trace(events), min_faults=5)
    severities = [s.severity for s in advisor.suggest()]
    assert severities == sorted(severities, reverse=True)


def test_advisor_on_real_contended_run():
    """End-to-end: a real contended run must produce a stage_locally or
    split_page suggestion for the hot counter page."""
    cluster = make_cluster()
    proc = cluster.create_process()
    alloc = MemoryAllocator(proc)
    tracer = FaultTracer()
    proc.add_hook(tracer)
    counter = alloc.alloc_global(8, tag="counter")
    gate = cluster.engine.event()

    def worker(ctx, node):
        yield from ctx.migrate(node)
        yield gate
        for _ in range(10):
            yield from ctx.atomic_add_i64(counter, 1, site="hot:add")
            yield from ctx.compute(cpu_us=3.0)
        yield from ctx.migrate_back()

    threads = [proc.spawn_thread(worker, n) for n in range(4)]

    def main(ctx):
        yield ctx.engine.timeout(6_000.0)
        gate.succeed()
        yield from proc.join_all(threads)

    cluster.simulate(main, proc)
    advisor = OptimizationAdvisor(TraceAnalysis(tracer), min_faults=4)
    suggestions = advisor.suggest()
    assert suggestions, "the hot counter page must be flagged"
    assert suggestions[0].kind in ("stage_locally", "split_page")
    assert "§IV" in str(suggestions[0]) or "stage" in str(suggestions[0])


def test_cli_roundtrip(tmp_path, capsys):
    """python -m repro.tools on a saved trace prints the analyses."""
    from repro.tools.__main__ import main as tools_main

    tracer = FaultTracer()
    for i in range(12):
        tracer.record(float(i * 100), 1 + i % 2, i, "write", "x:add",
                      0x3000, "heap")
    path = str(tmp_path / "trace.csv")
    tracer.save_csv(path)
    assert tools_main([path]) == 0
    out = capsys.readouterr().out
    assert "fault trace: 12 events" in out
    assert "fault rate over time" in out
    assert "suggestion" in out
