"""Regression tests for protocol races found during development.

Each of these once produced silent data loss or a deadlock; they all stem
from the optimistic concurrency §III-C describes: multiple in-flight
faults for one page (coalescing disabled), grants crossing invalidations,
and stale retries arriving after the world changed.
"""

import numpy as np

from repro.memory.page_table import PageState
from repro.params import SimParams
from repro.runtime import MemoryAllocator

from conftest import make_cluster

GLOBALS = 0x1000_0000


def test_writer_read_rerequest_keeps_exclusivity():
    """A read request from the current exclusive writer (a stale retry)
    must reaffirm EXCLUSIVE, not downgrade-without-flush."""
    cluster = make_cluster(num_nodes=2)
    proc = cluster.create_process()

    def main(ctx):
        yield from ctx.migrate(1)
        yield from ctx.write_i64(GLOBALS, 77)  # node 1 becomes the writer
        # a read request from the writer node, as a stale retry would send
        vpn = GLOBALS // cluster.params.page_size
        outcome = yield from proc.protocol.handle_request(
            requester=1, vpn=vpn, write=False, known_version=-1
        )
        return outcome

    status, state, version, data = cluster.simulate(main, proc)
    assert status == "grant"
    assert state == PageState.EXCLUSIVE.value
    assert data is None
    entry = proc.protocol.directory.lookup(GLOBALS // cluster.params.page_size)
    assert entry.writer == 1  # still the writer; dirty data never stranded
    proc.protocol.check_invariants()


def test_writer_write_rerequest_does_not_bump_version():
    """A write request from the node that already holds the page
    exclusively (second in-flight leader) reaffirms without moving data;
    bumping the version would mark the origin copy stale forever."""
    cluster = make_cluster(num_nodes=2)
    proc = cluster.create_process()

    def main(ctx):
        yield from ctx.migrate(1)
        yield from ctx.write_i64(GLOBALS, 5)
        vpn = GLOBALS // cluster.params.page_size
        before = proc.protocol.directory.lookup(vpn).data_version
        outcome = yield from proc.protocol.handle_request(
            requester=1, vpn=vpn, write=True, known_version=0  # stale
        )
        after = proc.protocol.directory.lookup(vpn).data_version
        return outcome, before, after

    (status, state, version, data), before, after = cluster.simulate(main, proc)
    assert status == "grant" and state == PageState.EXCLUSIVE.value
    assert data is None
    assert before == after == version
    proc.protocol.check_invariants()


def test_kmeans_correct_without_coalescing():
    """End-to-end regression: k-means (barriers + hot accumulator page +
    many concurrent leaders per page) with leader-follower coalescing
    disabled.  This run once deadlocked via a grant/invalidate ordering
    race and a stale-retry flushless downgrade."""
    from repro.apps import RunSpec

    result = RunSpec(
        "KMN", "initial", 4,
        overrides=dict(n_points=20_000, k=4, max_iters=2),
        base=SimParams(enable_fault_coalescing=False),
    ).run()
    assert result.correct


def test_atomic_storm_without_coalescing():
    """Many threads per node hammering one page with coalescing off: no
    lost updates, invariants hold."""
    cluster = make_cluster(num_nodes=4, enable_fault_coalescing=False)
    proc = cluster.create_process()
    alloc = MemoryAllocator(proc)
    var = alloc.alloc_global(8, tag="storm")
    per_thread = 20

    def worker(ctx, node):
        yield from ctx.migrate(node)
        for _ in range(per_thread):
            yield from ctx.atomic_add_i64(var, 1)
            yield from ctx.compute(cpu_us=0.4)
        yield from ctx.migrate_back()

    threads = [proc.spawn_thread(worker, n % 4) for n in range(16)]

    def main(ctx):
        yield from proc.join_all(threads)
        value = yield from ctx.read_i64(var)
        return value

    assert cluster.simulate(main, proc) == 16 * per_thread
    proc.protocol.check_invariants()


def test_grant_posted_before_busy_clears():
    """The reply to a page request must enter the connection's in-order
    stream before the directory op completes, so a subsequent op's
    invalidation can never overtake the grant.  Reproduced here as a
    mixed read/write storm across four nodes with data verification."""
    cluster = make_cluster(num_nodes=4, enable_fault_coalescing=False)
    proc = cluster.create_process()
    alloc = MemoryAllocator(proc)
    slots = alloc.alloc_global(64, tag="slots")

    def writer(ctx, node, slot):
        yield from ctx.migrate(node)
        for i in range(15):
            yield from ctx.write_i64(slots + slot * 8, i, site="w")
            got = yield from ctx.read_i64(slots + slot * 8)
            assert got == i  # read-own-write through all the churn
            yield from ctx.compute(cpu_us=0.7)
        yield from ctx.migrate_back()

    threads = [proc.spawn_thread(writer, n, n) for n in range(1, 4)]

    def main(ctx):
        for i in range(15):  # origin participates on its own slot
            yield from ctx.write_i64(slots, i)
            yield from ctx.compute(cpu_us=0.7)
        yield from proc.join_all(threads)
        values = []
        for s in range(4):
            values.append((yield from ctx.read_i64(slots + s * 8)))
        return values

    assert cluster.simulate(main, proc) == [14, 14, 14, 14]
    proc.protocol.check_invariants()
