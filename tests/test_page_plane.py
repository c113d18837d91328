"""The page plane: one immutable object per page version, shared by every
replica and copied only on the first write after it.

* ``FrameStore`` units: ``snapshot`` freezes a slot in place, ``install``
  keeps an immutable payload by reference, ``frame`` copies on write.
* A differential over random reads, writes and atomics on 3-4 nodes and
  1-3 pages, on both directory backends: after every operation each node
  that may read a page holds exactly the bytes of a flat reference buffer,
  and no write ever changes an object that another node holds.
* Seven readers of one version hold one object, and an exclusive page's
  frame is private (``check_invariants`` says so when it is not).
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.frames import FrameStore
from repro.runtime import MemoryAllocator

from conftest import make_cluster

PAGE = 4096


# ---------------------------------------------------------------------------
# FrameStore
# ---------------------------------------------------------------------------


def test_snapshot_freezes_in_place_and_returns_one_object_per_version():
    store = FrameStore(page_size=64)
    store.write(8, b"abc")
    first = store.snapshot(0)
    assert store.snapshot(0) is first and store.peek(0) is first
    assert first.readonly and bytes(first[8:11]) == b"abc"
    with pytest.raises(TypeError):
        first[0] = 1


def test_the_first_write_after_a_snapshot_copies_and_leaves_it_alone():
    store = FrameStore(page_size=64)
    store.write(0, b"old")
    shared = store.snapshot(0)
    store.write(0, b"new")
    frame = store.peek(0)
    assert type(frame) is bytearray and frame[:3] == b"new"
    assert bytes(shared[:3]) == b"old"
    assert store.frame(0) is frame  # private now: no second copy


def test_install_keeps_immutable_payloads_and_copies_writable_ones():
    store = FrameStore(page_size=64)
    payload = bytes(range(64))
    store.install(0, payload)
    assert store.peek(0) is payload
    view = FrameStore(page_size=64)
    view.write(0, b"x")
    snapshot = view.snapshot(0)
    store.install(1, snapshot)
    assert store.peek(1) is snapshot
    mutable = bytearray(64)
    store.install(2, mutable)
    assert store.peek(2) is not mutable and store.peek(2) == mutable
    mutable[0] = 7
    assert store.read(2 * 64, 1) == b"\x00"


def test_an_untouched_page_snapshots_as_zeros_and_stays_untouched():
    store = FrameStore(page_size=64)
    assert store.snapshot(3) == bytes(64)
    assert 3 not in store and len(store) == 0


def test_own_privatizes_a_shared_slot_only():
    store = FrameStore(page_size=64)
    store.own(0)
    assert 0 not in store
    private = store.frame(1)
    store.own(1)
    assert store.peek(1) is private
    store.install(2, bytes(64))
    store.own(2)
    assert type(store.peek(2)) is bytearray


# ---------------------------------------------------------------------------
# the protocol moves pages by reference
# ---------------------------------------------------------------------------


def readable(proc, node, state, vpn):
    """May *node* read *vpn* without a fault?  (``FaultHandler.permits``)"""
    pte = state.page_table.lookup(vpn)
    if pte is not None:
        return pte.readable
    return node == proc.origin and proc.protocol.directory.lookup(vpn) is None


def held_objects(proc, vpns, but=None):
    """Every frame object a node other than *but* holds, with its bytes."""
    return [(frame, bytes(frame))
            for node, state in list(proc.iter_node_states()) if node != but
            for vpn in vpns
            for frame in [state.frames.peek(vpn)] if frame is not None]


OPS = st.lists(
    st.tuples(st.integers(0, 3), st.sampled_from(("read", "write", "atomic")),
              st.integers(0, 2), st.integers(0, 3),
              st.integers(-(2 ** 40), 2 ** 40)),
    min_size=1, max_size=24)


@pytest.mark.parametrize("directory", ["origin", "sharded"])
def test_every_replica_matches_a_flat_reference_after_every_operation(directory):
    @settings(max_examples=30, deadline=None)
    @given(num_nodes=st.integers(3, 4), pages=st.integers(1, 3), ops=OPS)
    def check(num_nodes, pages, ops):
        cluster = make_cluster(num_nodes=num_nodes, directory=directory)
        proc = cluster.create_process()
        base = MemoryAllocator(proc).alloc_global(pages * PAGE, align=PAGE)
        vpns = [base // PAGE + i for i in range(pages)]
        reference = bytearray(pages * PAGE)

        def main(ctx):
            for node, kind, page, word, value in ops:
                node %= num_nodes
                page %= pages
                offset = page * PAGE + word * 8
                if ctx.node != node:
                    yield from ctx.migrate(node)
                before = held_objects(proc, vpns, but=node)
                if kind == "read":
                    got = yield from ctx.read_i64(base + offset)
                    assert got == struct.unpack_from("<q", reference, offset)[0]
                elif kind == "write":
                    yield from ctx.write_i64(base + offset, value)
                    struct.pack_into("<q", reference, offset, value)
                else:
                    old = yield from ctx.atomic_add_i64(base + offset, value)
                    assert old == struct.unpack_from("<q", reference, offset)[0]
                    struct.pack_into("<q", reference, offset, old + value)
                # no object another node held was written through
                assert all(bytes(obj) == data for obj, data in before)
                # (a sharded lookup may build a node's state: walk a copy)
                for n, state in list(proc.iter_node_states()):
                    for i, vpn in enumerate(vpns):
                        if readable(proc, n, state, vpn):
                            frame = state.frames.peek(vpn)
                            held = bytes(PAGE) if frame is None else bytes(frame)
                            assert held == reference[i * PAGE:(i + 1) * PAGE], (
                                f"node {n} page {i} after {kind} on node {node}")
                proc.protocol.check_invariants()
            yield from ctx.migrate_back()

        cluster.simulate(main, proc)
        cluster.close()

    check()


def seven_readers(directory="origin"):
    """The origin writes one page and nodes 1-7 read it; returns what the
    readers read and, by node, the frame each node held at the end."""
    cluster = make_cluster(num_nodes=8, directory=directory)
    proc = cluster.create_process()
    addr = MemoryAllocator(proc).alloc_global(PAGE, align=PAGE)

    def reader(ctx, node):
        yield from ctx.migrate(node)
        value = yield from ctx.read_i64(addr)
        yield from ctx.migrate_back()
        return value

    def main(ctx):
        yield from ctx.write_i64(addr, 42)
        threads = [proc.spawn_thread(reader, node) for node in range(1, 8)]
        return (yield from proc.join_all(threads))

    values = cluster.simulate(main, proc)
    vpn = addr // PAGE
    held = {node: state.frames.peek(vpn) for node, state in proc.iter_node_states()}
    cluster.close()
    return values, held


@pytest.mark.parametrize("directory", ["origin", "sharded"])
def test_seven_readers_of_one_version_hold_one_object(directory):
    values, held = seven_readers(directory)
    assert values == [42] * 7
    readers = [held[node] for node in range(1, 8)]
    assert all(frame is readers[0] for frame in readers)
    assert readers[0].readonly and struct.unpack_from("<q", readers[0])[0] == 42
    # the writer and (sharded) the home keep that same object too
    assert all(frame is readers[0] for frame in held.values() if frame is not None)


def test_an_exclusive_page_with_a_shared_frame_breaks_the_invariants():
    cluster = make_cluster(num_nodes=2)
    proc = cluster.create_process()
    addr = MemoryAllocator(proc).alloc_global(PAGE, align=PAGE)

    def main(ctx):
        yield from ctx.write_i64(addr, 1)
        yield from ctx.migrate(1)
        yield from ctx.read_i64(addr)   # node 1 reads: the origin shares
        yield from ctx.write_i64(addr, 2)  # node 1 takes the page exclusive
        yield from ctx.migrate_back()

    cluster.simulate(main, proc)
    vpn, frames = addr // PAGE, proc.node_state(1).frames
    assert type(frames.peek(vpn)) is bytearray
    proc.protocol.check_invariants()
    frames.snapshot(vpn)
    with pytest.raises(AssertionError, match="shared memoryview snapshot"):
        proc.protocol.check_invariants()
    frames.own(vpn)
    cluster.close()
