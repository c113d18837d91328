"""The coherence sanitizer: clean on correct protocol runs, and catches
deliberately seeded protocol bugs with actionable diagnostics.

The seeded bugs are installed as instance-level patches on a live
process's :class:`ConsistencyProtocol`:

* **skipped invalidation** — the owner-side invalidation handler acks
  without applying the PTE change, so a revoked reader keeps a stale
  readable mapping;
* **reordered grant** — the home hands out exclusive ownership without
  first revoking the previous owner, as if a stale grant overtook the
  invalidation round.

Both must be caught under both directory backends.
"""

import pytest

from repro.check import CoherenceSanitizer, CoherenceViolation, DeadlockDetector
from repro.check.vclock import VectorClock
from repro.memory.page_table import PageState
from repro.net.messages import MsgType

from conftest import make_cluster

GLOBALS = 0x1000_0000

BACKENDS = ("origin", "sharded")


def pick_vpn(proc):
    """A globals page whose home is the origin under the active backend,
    so revocations of a remote reader always travel the wire."""
    page = proc.cluster.params.page_size
    base = GLOBALS // page
    for vpn in range(base, base + 64):
        if proc.protocol.directory.home(vpn) == 0:
            return vpn
    pytest.fail("no globals page homed at node 0")


def repair_page(proc, vpn, valid_node):
    """Reset the seeded-bug page to a consistent single-owner state so
    the autouse teardown invariant check passes: the test already made
    its assertions about the (intentionally broken) intermediate state."""
    entry = proc.protocol.directory.lookup(vpn)
    for node, state in proc.iter_node_states():
        pte = state.page_table.lookup(vpn)
        if pte is None:
            continue
        if node == valid_node:
            pte.data_version = entry.data_version
        else:
            pte.state = PageState.INVALID
    writer_pte = proc.node_state(valid_node).page_table.lookup(vpn)
    entry.owners = {valid_node}
    entry.writer = valid_node if writer_pte.state is PageState.EXCLUSIVE else None


# ----------------------------------------------------------------------
# clean runs
# ----------------------------------------------------------------------


def test_vector_clock_semantics():
    a = VectorClock()
    b = VectorClock()
    a.tick(1)
    a.tick(1)
    assert a.get(1) == 2
    assert a.dominates(1, 2) and not a.dominates(1, 3)
    b.merge(a)
    b.tick(2)
    assert b.dominates(1, 2) and b.dominates(2, 1)
    assert not a.dominates(2, 1)
    c = b.copy()
    c.tick(1)
    assert b.get(1) == 2 and c.get(1) == 3
    assert len(c) == 2 and dict(c.items()) == {1: 3, 2: 1}


@pytest.mark.parametrize("backend", BACKENDS)
def test_clean_run_counts_checks(backend):
    cluster = make_cluster(num_nodes=4, directory=backend, sanitize="all")
    proc = cluster.create_process()
    counter = GLOBALS
    slots = GLOBALS + 8

    def worker(ctx, idx, node):
        yield from ctx.migrate(node)
        for i in range(4):
            yield from ctx.atomic_add_i64(counter, 1, site="clean:counter")
            yield from ctx.write_i64(slots + idx * 8, i, site="clean:slot")
        yield from ctx.migrate_back()

    threads = [proc.spawn_thread(worker, i, i % 4) for i in range(4)]

    def main(ctx):
        yield from proc.join_all(threads)
        total = yield from ctx.read_i64(counter)
        return total

    assert cluster.simulate(main, proc) == 16
    san = proc.hooks.find(CoherenceSanitizer)
    assert san is not None and proc.hooks.find(DeadlockDetector) is not None
    assert san.accesses_checked > 0
    assert san.transitions_checked > 0
    assert san.edges_recorded > 0


# ----------------------------------------------------------------------
# seeded bug: skipped invalidation
# ----------------------------------------------------------------------


def _install_skip_invalidation(proc):
    """The owner-side PAGE_INVALIDATE handler acks without touching the
    PTE — the revoked reader keeps reading its stale mapping."""

    def skip_invalidate(msg):
        yield proc.cluster.engine.timeout(
            proc.cluster.params.invalidation_handler_cost
        )
        yield from proc.cluster.net.send(
            msg.make_reply(MsgType.PAGE_INVALIDATE_ACK, {"ok": True})
        )

    proc.protocol.handle_invalidate_msg = skip_invalidate


@pytest.mark.parametrize("backend", BACKENDS)
def test_skipped_invalidation_trips_transition_check(backend):
    """With per-transition checking on, the stale reader PTE is flagged
    the moment the conflicting write's transition commits."""
    cluster = make_cluster(num_nodes=2, directory=backend, sanitize="race")
    proc = cluster.create_process()
    vpn = pick_vpn(proc)
    addr = vpn * cluster.params.page_size

    def reader(ctx):
        yield from ctx.migrate(1)
        yield from ctx.read_u32(addr, site="seed:early-read")

    def main(ctx):
        yield from ctx.write_u32(addr, 1, site="seed:init")
        t1 = ctx.spawn(reader, name="reader")
        yield from ctx.join(t1)
        _install_skip_invalidation(proc)
        yield from ctx.write_u32(addr, 2, site="seed:conflicting-write")

    with pytest.raises(CoherenceViolation) as exc_info:
        cluster.simulate(main, proc)
    message = str(exc_info.value)
    assert "is not a directory owner" in message
    assert f"page {vpn:#x}" in message
    assert backend in message
    repair_page(proc, vpn, valid_node=0)


@pytest.mark.parametrize("backend", BACKENDS)
def test_skipped_invalidation_trips_race_detector(backend):
    """With transition checks off, the pure happens-before detector
    catches the stale read and names both access sites."""
    cluster = make_cluster(num_nodes=2, directory=backend, sanitize="race")
    proc = cluster.create_process()
    proc.hooks.find(CoherenceSanitizer).transition_checks = False
    vpn = pick_vpn(proc)
    addr = vpn * cluster.params.page_size

    def reader(ctx):
        yield from ctx.migrate(1)
        yield from ctx.read_u32(addr, site="seed:early-read")
        yield from ctx.sleep(5000)
        # the conflicting write's invalidation was dropped: this read
        # does not fault, and no happens-before edge reaches it
        yield from ctx.read_u32(addr, site="seed:stale-read")

    def main(ctx):
        yield from ctx.write_u32(addr, 1, site="seed:init")
        t1 = ctx.spawn(reader, name="reader")
        yield from ctx.sleep(2000)
        _install_skip_invalidation(proc)
        yield from ctx.write_u32(addr, 2, site="seed:conflicting-write")
        yield from ctx.join(t1)

    with pytest.raises(CoherenceViolation) as exc_info:
        cluster.simulate(main, proc)
    message = str(exc_info.value)
    assert "unordered read/write pair" in message
    assert "seed:conflicting-write" in message
    assert "seed:stale-read" in message
    assert f"directory backend: {backend}" in message
    repair_page(proc, vpn, valid_node=0)


# ----------------------------------------------------------------------
# seeded bug: reordered grant
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_reordered_grant_trips_race_detector(backend):
    """A grant that skips the revocation round leaves the new writer's
    copy without the page's causal history: the very next access is an
    unordered write/write pair."""
    cluster = make_cluster(num_nodes=2, directory=backend, sanitize="race")
    proc = cluster.create_process()
    proc.hooks.find(CoherenceSanitizer).transition_checks = False
    vpn = pick_vpn(proc)
    addr = vpn * cluster.params.page_size

    def buggy_grant_exclusive(entry, requester, known_version, request_id=0):
        # hand out exclusive ownership without revoking the previous
        # owner — as if this grant overtook the invalidation round (the
        # request id a forwarded page would be keyed by goes unused)
        entry.owners = {requester}
        entry.writer = requester
        entry.data_version += 1
        return ("grant", PageState.EXCLUSIVE.value, entry.data_version, None)
        yield  # pragma: no cover - keeps this a generator

    def writer(ctx):
        yield from ctx.migrate(1)
        yield from ctx.sleep(1000)
        yield from ctx.write_u32(addr, 2, site="seed:racing-write")

    def main(ctx):
        # spawn first: the write below must NOT be ordered before the
        # child via the spawn edge, or the pair is legitimately ordered
        t1 = ctx.spawn(writer, name="writer")
        yield from ctx.sleep(200)
        yield from ctx.write_u32(addr, 1, site="seed:first-write")
        yield from ctx.sleep(300)
        proc.protocol._grant_exclusive = buggy_grant_exclusive
        yield from ctx.join(t1)

    with pytest.raises(CoherenceViolation) as exc_info:
        cluster.simulate(main, proc)
    message = str(exc_info.value)
    assert "unordered write/write pair" in message
    assert "seed:first-write" in message
    assert "seed:racing-write" in message
    assert f"directory backend: {backend}" in message
    repair_page(proc, vpn, valid_node=1)
