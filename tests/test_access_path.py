"""The bulk access path: ``FaultHandler.read_into`` / ``write`` copy each
byte once, between its frame and the caller's buffer, and ``DistArray``
reads and writes make no second copy.  What must not change with that:
the bytes, the zeros of pages never touched, the ownership of what a read
returns, and the ``access`` probe's per-page sequence."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime import MemoryAllocator
from repro.runtime.array import alloc_array

from conftest import make_cluster
from probe_log import Recorder

PAGE = 4096
SPAN = 5 * PAGE


def region(num_nodes=2):
    cluster = make_cluster(num_nodes=num_nodes)
    proc = cluster.create_process()
    alloc = MemoryAllocator(proc)
    return cluster, proc, alloc, alloc.posix_memalign(SPAN)


@settings(max_examples=25, deadline=None)
@given(
    lo=st.integers(1, PAGE - 1),
    length=st.integers(2 * PAGE + 2, 3 * PAGE),
    node=st.sampled_from([0, 1]),
)
def test_mid_page_spans_match_a_flat_buffer(lo, length, node):
    # a span of three or more pages that starts and ends mid-page, written
    # at the origin, then read and overwritten on *node* (remote: every
    # page faults inside the loop), then read back whole at the origin
    cluster, proc, alloc, addr = region()
    first = bytes(np.arange(length, dtype=np.uint8) * 7 % 251)
    second = bytes(np.arange(length, dtype=np.uint8) * 3 % 241)
    flat = bytearray(SPAN)

    def main(ctx):
        yield from ctx.write(addr + lo, first)
        yield from ctx.migrate(node)
        into = bytearray(length)
        yield from ctx.read_into(addr + lo, into)
        yield from ctx.write(addr + lo + 1, memoryview(second)[:-1])
        yield from ctx.migrate_back()
        whole = yield from ctx.read(addr, SPAN)
        return bytes(into), whole

    into, whole = cluster.simulate(main, proc)
    assert into == first
    flat[lo:lo + length] = first
    flat[lo + 1:lo + length] = second[:-1]
    assert whole == bytes(flat)


@pytest.mark.parametrize("node", [0, 1])
def test_pages_never_touched_read_as_zeros(node):
    cluster, proc, alloc, addr = region()
    arr = alloc_array(alloc, np.int64, 3 * PAGE // 8)

    def main(ctx):
        yield from ctx.migrate(node)
        raw = yield from ctx.read(addr + 100, 2 * PAGE)
        into = bytearray(b"\xff" * (2 * PAGE))
        yield from ctx.read_into(addr + 100, into)
        values = yield from arr.read(ctx, 5, arr.length - 3)
        yield from ctx.migrate_back()
        return raw, into, values

    raw, into, values = cluster.simulate(main, proc)
    assert type(raw) is bytes and raw == bytes(2 * PAGE)
    assert into == bytes(2 * PAGE)
    assert values.shape == (arr.length - 8,) and not values.any()


def test_a_read_returns_a_fresh_owned_writable_array():
    cluster, proc, alloc, _ = region()
    arr = alloc_array(alloc, np.float64, 1_000)
    values = np.linspace(-1.0, 1.0, 1_000)

    def main(ctx):
        yield from arr.write(ctx, 0, values)
        got = yield from arr.read(ctx, 17, 900)
        got[:] = 0.0  # the caller's copy, not the frames
        again = yield from arr.read(ctx, 17, 900)
        return got, again

    got, again = cluster.simulate(main, proc)
    assert got.flags.owndata and got.flags.writeable and got.base is None
    assert got.dtype == np.float64 and not got.any()
    assert np.array_equal(again, values[17:900])


def test_writes_from_non_contiguous_bool_and_empty_arrays():
    cluster, proc, alloc, _ = region()
    doubles = alloc_array(alloc, np.float64, 1_200)
    flags = alloc_array(alloc, np.bool_, 5_000)
    source = np.arange(2_400, dtype=np.float64)
    truth = np.arange(5_000) % 3 == 0

    def main(ctx):
        yield from doubles.write(ctx, 0, source[::2])  # a strided view
        yield from doubles.write(ctx, 1_000, truth[:200])  # bool -> float64
        yield from doubles.write(ctx, 7, np.empty(0))
        yield from flags.write(ctx, 0, truth)
        got = yield from doubles.read(ctx)
        bits = yield from flags.read(ctx)
        return got, bits

    got, bits = cluster.simulate(main, proc)
    assert np.array_equal(got[:1_000], source[:2_000:2])
    assert np.array_equal(got[1_000:], truth[:200].astype(np.float64))
    assert bits.dtype == np.bool_ and np.array_equal(bits, truth)


def test_read_into_fires_the_access_probe_as_read_does():
    def accesses(bulk):
        cluster, proc, _, addr = region(num_nodes=3)
        recorder = Recorder()
        proc.add_hook(recorder)

        def main(ctx):
            yield from ctx.write(addr + 10, bytes(range(256)) * 40)
            for node in (1, 2, 0):
                yield from ctx.migrate(node)
                yield from bulk(ctx, addr + 2_000, 3 * PAGE)

        cluster.simulate(main, proc)
        first = addr // PAGE
        # (node, page, write, site) of every access, pages counted from
        # the region's first
        return [(args[0], args[2] - first, args[3], args[4])
                for probe, args in recorder.seen if probe == "access"]

    def read(ctx, addr, nbytes):
        yield from ctx.read(addr, nbytes, "bulk")

    def read_into(ctx, addr, nbytes):
        yield from ctx.read_into(addr, bytearray(nbytes), "bulk")

    seen = accesses(read)
    assert seen == accesses(read_into)
    # one read access per page, in address order, on each node in turn
    assert [row for row in seen if row[3] == "bulk"] == [
        (node, page, False, "bulk") for node in (1, 2, 0) for page in range(4)]
