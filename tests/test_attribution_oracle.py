"""The one attribution sweep against the two it replaced.

``repro.obs.export.attribution`` (per thread, ranked by priority) and
``repro.obs.lens.tree_phases`` (per span tree, ranked by depth) are two
rankings of ``export.sweep`` over the one ``SPAN_PHASES`` table; the
parent sweeps live on in ``tests/oracles/attribution.py``.  Results must
be equal — not approximately: the same intervals added in the same
order, so the same floats, with buckets in the same first-seen order.
"""

from collections import defaultdict

from hypothesis import given, settings, strategies as st

from repro.apps.common import RunSpec
from repro.bench.experiments import pagefault_micro
from repro.obs.export import PathPhase, attribution, path_phase_of, phase_of
from repro.obs.lens import tree_phases
from repro.obs.tracing import Span
from repro.params import SimParams
from repro.runtime import MemoryAllocator

from conftest import TEST_DIRECTORY, make_cluster
from oracles import attribution as oracle


def _assert_same(spans):
    """Per-thread totals and every tree's phase dict, key order included."""
    got, want = attribution(spans), oracle.attribution(spans)
    assert [(tid, list(row.items())) for tid, row in got.items()] == [
        (tid, list(row.items())) for tid, row in want.items()]
    by_trace = defaultdict(list)
    for span in spans:
        by_trace[span.trace_id].append(span)
    trees = 0
    for members in by_trace.values():
        for root in (s for s in members if s.parent_id is None):
            assert list(tree_phases(root, members).items()) == list(
                oracle.tree_phases(root, members).items())
            trees += 1
    assert trees
    return got


def test_kmn_initial_at_4():
    spec = RunSpec("KMN", variant="initial", nodes=4,
                   base=SimParams(trace="1"), directory=TEST_DIRECTORY)
    cluster = spec.cluster()
    assert spec.run(cluster=cluster).correct
    per_tid = _assert_same(cluster.tracer.spans)
    assert sum(row["migration"] for row in per_tid.values()) > 0


def test_pagefault_micro():
    cluster = RunSpec("pagefault", base=SimParams(trace="1"),
                      directory=TEST_DIRECTORY).cluster()
    pagefault_micro(5_000.0, cluster.params, cluster=cluster)
    per_tid = _assert_same(cluster.tracer.spans)
    assert sum(row["fault_wait"] for row in per_tid.values()) > 0


def test_three_node_contended_micro():
    """Three hammers on one page: retried faults, followers, revocations
    in every direction."""
    cluster = make_cluster(num_nodes=3, trace="1", sanitize="")
    proc = cluster.create_process()
    var = MemoryAllocator(proc).alloc_global(8, tag="hot")
    gate = cluster.engine.event()

    def hammer(ctx, dest):
        if dest is not None:
            yield from ctx.migrate(dest)
        yield gate
        for _ in range(30):
            yield from ctx.atomic_add_i64(var, 1, site="h")
            yield from ctx.compute(cpu_us=20.0)

    threads = [proc.spawn_thread(hammer, dest) for dest in (None, 1, 2)]

    def main(ctx):
        yield 5_000.0
        gate.succeed()
        yield from proc.join_all(threads)

    cluster.simulate(main, proc)
    assert proc.stats.fault_retries > 0
    _assert_same(cluster.tracer.spans)


# -- a generated forest -------------------------------------------------------

#: one name per SPAN_PHASES row, a sibling name for each prefix row, and
#: names no row lists
NAMES = (
    "net.wire", "net.send", "rx.page_request", "protocol.revoke",
    "protocol.invalidate", "protocol.grant", "chaos.drop", "futex.wait",
    "fault.follow", "fault.acquire", "fault", "fault.retry",
    "migration.forward", "delegation.call", "compute", "other",
)


@st.composite
def forests(draw):
    """Trees of positive-length spans (traces never hold a zero-length
    one): each child starts inside its parent and may outlive it, times
    are arbitrary floats, threads are shared across trees."""
    spans = []
    for trace_id in range(1, draw(st.integers(1, 4)) + 1):
        tree = []
        for _ in range(draw(st.integers(1, 8))):
            parent = draw(st.sampled_from(tree)) if tree else None
            if parent is None:
                start = draw(st.floats(0.0, 500.0))
            else:
                start = draw(st.floats(parent.start_us, parent.end_us,
                                       exclude_max=True))
            end = start + draw(st.floats(1e-3, 80.0))
            tree.append(Span(
                draw(st.sampled_from(NAMES)), len(spans) + len(tree) + 1,
                trace_id, parent.span_id if parent else None, 0,
                draw(st.integers(-1, 2)), start, end))
        spans.extend(tree)
    return spans


@settings(max_examples=200, deadline=None)
@given(forests())
def test_a_generated_forest(spans):
    _assert_same(spans)


def test_one_table_answers_both_vocabularies():
    for name in NAMES:
        assert path_phase_of(name) is oracle.path_phase_of(name)
        assert phase_of(name) == oracle.phase_of(name)
    assert path_phase_of("anything.else") is PathPhase.HANDLER
