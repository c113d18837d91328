"""The page plane: one immutable object per page version, shared by every
replica and copied only on the first write after it.

* ``FrameStore`` units: ``snapshot`` freezes a slot in place, ``install``
  keeps an immutable payload by reference, ``frame`` copies on write, and
  every untouched page snapshots as the store's one zero page.
* ``immutable`` vouches for ``bytes`` and for read-only arrays over bytes
  or over an owner ``freeze`` froze, and for nothing writable.
* A differential over random reads, writes and atomics on 3-4 nodes and
  1-3 pages, some seeded from a frozen input, on both directory backends:
  after every operation each node that may read a page holds exactly the
  bytes of a flat reference buffer, and no write ever changes an object
  that another node holds.
* An input page is one object at the origin and at every reader; a write
  to it copies, and the input stays as it was.
* Seven readers of one version hold one object, and an EXCLUSIVE slot is
  no other node's slot (``check_invariants`` says so when it is).
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import workloads
from repro.memory.frames import FrameStore, freeze, immutable
from repro.runtime import MemoryAllocator
from repro.runtime.array import alloc_array

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
    # one zero page per store, not a fresh one per grant
    assert store.snapshot(4) is store.snapshot(3)
    store.materialize(5)
    assert store.peek(5) is store.snapshot(3)
    store.write(5 * 64, b"x")
    assert type(store.peek(5)) is bytearray and store.snapshot(3) == bytes(64)
    store.materialize(5)  # a slot already there is kept
    assert store.read(5 * 64, 1) == b"x"


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
# immutable: which sources a slot may keep by reference
# ---------------------------------------------------------------------------


def frozen_input(n_bytes, seed=1):
    """A fresh array of *n_bytes* frozen as the memoiser freezes inputs."""
    array = np.random.default_rng(seed).integers(
        -(2 ** 62), 2 ** 62, size=n_bytes // 8, dtype=np.int64)
    freeze(array)
    return array


def test_bytes_and_read_only_views_of_frozen_owners_are_immutable():
    owner = frozen_input(PAGE)
    data = bytes(PAGE)
    for source in (data, memoryview(data), np.frombuffer(data, np.uint8),
                   np.frombuffer(data, np.int64).reshape(8, -1), owner,
                   owner[8:], owner.reshape(8, -1).ravel(), memoryview(owner)):
        assert immutable(source), type(source)


def test_writable_sources_and_views_of_writable_bases_are_not():
    thawed = np.zeros(PAGE // 8)
    view = thawed[:]
    view.setflags(write=False)
    unfrozen = np.zeros(PAGE // 8)
    unfrozen.setflags(write=False)  # read-only, but not frozen for good
    for source in (bytearray(PAGE), memoryview(bytearray(PAGE)),
                   memoryview(bytearray(PAGE)).toreadonly(), thawed, view,
                   unfrozen, np.frombuffer(bytearray(PAGE), np.uint8)):
        assert not immutable(source), type(source)


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
#: the origin's first writes: (first page, page count, input seed) of a
#: frozen input, so some pages start as the input's own bytes
SEEDS = st.lists(st.tuples(st.integers(0, 2), st.integers(1, 3),
                           st.integers(0, 2 ** 16)), max_size=2)


@pytest.mark.parametrize("directory", ["origin", "sharded"])
def test_every_replica_matches_a_flat_reference_after_every_operation(directory):
    @settings(max_examples=30, deadline=None)
    @given(num_nodes=st.integers(3, 4), pages=st.integers(1, 3), ops=OPS,
           seeds=SEEDS)
    def check(num_nodes, pages, ops, seeds):
        cluster = make_cluster(num_nodes=num_nodes, directory=directory)
        proc = cluster.create_process()
        base = MemoryAllocator(proc).alloc_global(pages * PAGE, align=PAGE)
        vpns = [base // PAGE + i for i in range(pages)]
        reference = bytearray(pages * PAGE)
        inputs = []
        for first, count, seed in seeds:
            first %= pages
            count = min(count, pages - first)
            inputs.append((first, frozen_input(count * PAGE, seed)))
            reference[first * PAGE:(first + count) * PAGE] = inputs[-1][1].data
        pristine = [bytes(data) for _, data in inputs]

        def main(ctx):
            for first, data in inputs:
                yield from ctx.write(base + first * PAGE, data)
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
        # every write to an input's page copied it first
        assert [bytes(data) for _, data in inputs] == pristine

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


def input_readers(directory, writer=None):
    """The origin writes a two-page frozen input and nodes 1-7 read it,
    then node *writer* (if any) writes its first word; returns the input,
    what each reader read and, by node, the two slots it held."""
    cluster = make_cluster(num_nodes=8, directory=directory)
    proc = cluster.create_process()
    data = frozen_input(2 * PAGE)
    array = alloc_array(MemoryAllocator(proc), np.int64, len(data),
                        page_aligned=True)

    def reader(ctx, node):
        yield from ctx.migrate(node)
        values = yield from array.read(ctx)
        yield from ctx.migrate_back()
        return values

    def main(ctx):
        yield from array.write(ctx, 0, data)
        threads = [proc.spawn_thread(reader, node) for node in range(1, 8)]
        values = yield from proc.join_all(threads)
        if writer is not None:
            yield from ctx.migrate(writer)
            yield from ctx.fault_in(array.addr, 8, write=True)
            # exclusive, not yet written: the grant already made it private
            proc.protocol.check_invariants()
            yield from array.set(ctx, 0, -1)
            yield from ctx.migrate_back()
        return values

    values = cluster.simulate(main, proc)
    vpns = range(array.addr // PAGE, array.addr // PAGE + 2)
    held = {node: [state.frames.peek(vpn) for vpn in vpns]
            for node, state in proc.iter_node_states()}
    proc.protocol.check_invariants()
    cluster.close()
    return data, values, held


@pytest.mark.parametrize("directory", ["origin", "sharded"])
def test_an_input_page_is_one_object_at_the_origin_and_every_reader(directory):
    data, values, held = input_readers(directory)
    assert all(np.array_equal(v, data) for v in values)
    for page in range(2):
        origin = held[0][page]
        # the origin's slot is a view of the input itself, not a copy
        assert origin.readonly and origin.obj is data
        assert bytes(origin) == data[page * 512:(page + 1) * 512].tobytes()
        assert all(slots[page] is origin for slots in held.values())


@pytest.mark.parametrize("directory", ["origin", "sharded"])
def test_a_write_to_an_input_page_copies_it_and_leaves_the_input(directory):
    pristine = workloads.clustered_points(700, 3).copy()
    points = workloads.clustered_points(700, 3)  # memoised: frozen
    cluster = make_cluster(num_nodes=3, directory=directory)
    proc = cluster.create_process()
    array = alloc_array(MemoryAllocator(proc), np.float64, points.size,
                        page_aligned=True)

    def main(ctx):
        yield from array.write(ctx, 0, points.ravel())
        yield from ctx.migrate(1)
        yield from array.read(ctx)
        yield from array.set(ctx, 3, 1.5)       # remote write: upgrade
        yield from ctx.migrate(2)
        yield from array.add(ctx, 700, 2.0)     # atomic on the next page
        yield from ctx.migrate_back()
        yield from array.set(ctx, 1000, -4.0)   # the origin writes back
        return (yield from array.read(ctx))

    got = cluster.simulate(main, proc)
    cluster.close()
    expected = pristine.ravel().copy()
    expected[3], expected[700], expected[1000] = 1.5, expected[700] + 2.0, -4.0
    assert np.array_equal(got, expected)
    assert np.array_equal(points, pristine)
    assert points is workloads.clustered_points(700, 3)


def test_a_remote_writer_of_an_input_page_holds_a_private_copy():
    data, _, held = input_readers("origin", writer=3)
    assert type(held[3][0]) is bytearray and held[3][0][:8] == (-1).to_bytes(
        8, "little", signed=True)
    # the second page is untouched: still the input's view everywhere
    assert all(slots[1] is held[0][1] for slots in held.values())
    assert data[0] != -1


@pytest.mark.parametrize("make", [
    lambda: np.arange(PAGE // 8),
    lambda: np.arange(PAGE // 8)[:],
    lambda: bytearray(PAGE),
], ids=["writable", "view-of-writable", "bytearray"])
def test_writable_sources_are_copied_not_adopted(make):
    source = make()
    if isinstance(source, np.ndarray) and source.base is not None:
        source.setflags(write=False)  # read-only view, writable base
    cluster = make_cluster(num_nodes=2)
    proc = cluster.create_process()
    addr = MemoryAllocator(proc).alloc_global(PAGE, align=PAGE)

    def main(ctx):
        yield from ctx.write(addr, source)

    cluster.simulate(main, proc)
    frame = proc.node_state(0).frames.peek(addr // PAGE)
    cluster.close()
    assert type(frame) is bytearray and frame == memoryview(source).cast("B")


def test_an_exclusive_slot_another_node_holds_breaks_the_invariants():
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
    # a shared slot is fine while no other node holds the same object ...
    snapshot = frames.snapshot(vpn)
    proc.protocol.check_invariants()
    # ... and breaks the invariants once one does
    proc.node_state(0).frames.install(vpn, snapshot)
    with pytest.raises(AssertionError, match="another node's slot too"):
        proc.protocol.check_invariants()
    frames.own(vpn)
    proc.protocol.check_invariants()
    cluster.close()
