"""The wait-for deadlock detector: classic cycles are reported with
per-thread stacks, legitimate contention is not flagged, and a stuck
simulation gets a post-mortem report."""

import pytest

from repro.check import DeadlockDetector, DeadlockError
from repro.core.errors import DexError
from repro.runtime import MemoryAllocator, Mutex

from conftest import make_cluster

GLOBALS = 0x1000_0000


def test_abba_deadlock_detected_with_stacks():
    """t1 holds A and wants B; t2 (remote, via delegation) holds B and
    wants A — the cycle is reported the moment it closes, with each
    member's block-frame stack."""
    cluster = make_cluster(num_nodes=2, sanitize="deadlock")
    proc = cluster.create_process()
    alloc = MemoryAllocator(proc)
    lock_a = Mutex(alloc, name="A")
    lock_b = Mutex(alloc, name="B")

    def holder_ab(ctx):
        yield from lock_a.lock(ctx)
        yield from ctx.sleep(5000)
        yield from lock_b.lock(ctx)

    def holder_ba(ctx):
        yield from ctx.migrate(1)
        yield from lock_b.lock(ctx)
        yield from ctx.sleep(5000)
        yield from lock_a.lock(ctx)

    def main(ctx):
        t1 = ctx.spawn(holder_ab, name="ab")
        t2 = ctx.spawn(holder_ba, name="ba")
        yield from proc.join_all([t1, t2])

    with pytest.raises(DeadlockError) as exc_info:
        cluster.simulate(main, proc)
    message = str(exc_info.value)
    assert "wait-for cycle detected" in message
    # both orientations of the two-cycle are the same cycle
    assert "t1 -> t2 -> t1" in message or "t2 -> t1 -> t2" in message
    assert "t1 blocked in:" in message and "t2 blocked in:" in message
    assert "futex(" in message
    # the remote locker's delegation round-trip shows up in its stack
    assert "delegation(futex_wait@node1)" in message


def test_self_deadlock_on_relock():
    """Relocking a held (non-recursive) mutex is a one-thread cycle."""
    cluster = make_cluster(num_nodes=2, sanitize="deadlock")
    proc = cluster.create_process()
    alloc = MemoryAllocator(proc)
    lock = Mutex(alloc, name="M")

    def main(ctx):
        yield from lock.lock(ctx)
        yield from lock.lock(ctx)

    with pytest.raises(DeadlockError) as exc_info:
        cluster.simulate(main, proc)
    assert "t0 -> t0" in str(exc_info.value)


def test_contended_mutex_is_not_flagged():
    """Heavy cross-node contention on one lock is progress, not a
    deadlock — and the lock-ordered critical sections satisfy the race
    sanitizer (futex wakes and the lock word's coherence carry the
    happens-before edges)."""
    cluster = make_cluster(num_nodes=2, sanitize="all")
    proc = cluster.create_process()
    alloc = MemoryAllocator(proc)
    lock = Mutex(alloc, name="M")
    counter = alloc.alloc_global(8, tag="counter")

    def worker(ctx, node):
        yield from ctx.migrate(node)
        for _ in range(3):
            yield from lock.lock(ctx)
            value = yield from ctx.read_i64(counter, site="cs:read")
            yield from ctx.compute(cpu_us=5.0)
            yield from ctx.write_i64(counter, value + 1, site="cs:write")
            yield from lock.unlock(ctx)
        yield from ctx.migrate_back()

    threads = [proc.spawn_thread(worker, n % 2) for n in range(4)]

    def main(ctx):
        yield from proc.join_all(threads)
        total = yield from ctx.read_i64(counter)
        return total

    assert cluster.simulate(main, proc) == 12
    detector = proc.hooks.find(DeadlockDetector)
    assert detector._frames == {}
    assert detector._lock_holder == {}
    assert detector.edges_checked > 0


def test_stuck_simulation_report_names_the_waiter():
    """A futex wait nobody will ever wake is not a wait-for cycle, but
    the simulate() failure carries the detector's post-mortem."""
    cluster = make_cluster(num_nodes=2, sanitize="deadlock")
    proc = cluster.create_process()

    def main(ctx):
        yield from ctx.write_u32(GLOBALS, 0)
        yield from ctx.futex_wait(GLOBALS, expected=0)

    with pytest.raises(DexError) as exc_info:
        cluster.simulate(main, proc)
    message = str(exc_info.value)
    assert "simulation ended before the main thread finished" in message
    assert "wait-for state:" in message
    assert "t0 blocked in:" in message
    assert "futex(" in message


def test_exhausted_buffer_pool_appears_in_report():
    """A sender parked on buffer-pool back-pressure is a block frame too:
    the post-mortem names the exhausted pool, its size, and the waiters."""
    from repro.net.buffers import BufferPool

    cluster = make_cluster(num_nodes=2, sanitize="deadlock")
    proc = cluster.create_process()
    pool = BufferPool(cluster.engine, chunks=1, chunk_bytes=4096,
                      name="c0->1.send")
    cluster.engine.process(pool.acquire(), name="first")   # takes the chunk
    cluster.engine.process(pool.acquire(), name="second")  # stalls forever
    cluster.engine.run()
    assert pool.stalls == 1
    report = proc.hooks.find(DeadlockDetector).report()
    assert "exhausted buffer pools:" in report
    assert "pool c0->1.send exhausted (1 chunks, 1 waiter(s))" in report
    assert "pending sim processes:" in report


def test_post_mortem_lists_the_stuck_waiter_not_the_sleeper():
    """A private sleep is not a recorded wait: of two processes that both
    waited on an event earlier, the post-mortem of a run cut short names
    the one still stuck on an Event, not the one now asleep (whose last
    recorded wait is stale)."""
    cluster = make_cluster(num_nodes=2, sanitize="deadlock")
    proc = cluster.create_process()
    engine = cluster.engine
    gate = engine.event(name="gate")
    never = engine.event(name="never")

    def stuck():
        yield gate
        yield never

    def sleeper():
        yield gate
        yield 1_000.0

    def opener():
        yield 5.0
        gate.succeed()

    engine.process(stuck(), name="stuck")
    asleep = engine.process(sleeper(), name="sleeper")
    engine.process(opener(), name="opener")
    engine.run(until=100.0)
    watcher = proc.hooks.find(DeadlockDetector).watcher
    assert asleep.is_alive and watcher.waiting[asleep] is gate  # stale
    pending = watcher.pending()
    assert len(pending) == 1
    assert pending[0].startswith("stuck waiting on <never pending")
    assert "sleeper" not in proc.hooks.find(DeadlockDetector).report()


def test_pool_stall_clears_on_release():
    from repro.net.buffers import BufferPool

    cluster = make_cluster(num_nodes=2, sanitize="deadlock")
    proc = cluster.create_process()
    pool = BufferPool(cluster.engine, chunks=1, chunk_bytes=4096, name="p")

    def cycle(engine):
        yield from pool.acquire()
        yield engine.timeout(5.0)
        pool.release()

    cluster.engine.process(cycle(cluster.engine), name="a")
    cluster.engine.process(cycle(cluster.engine), name="b")
    cluster.engine.run()
    assert pool.stalls == 1  # b waited for a's chunk once
    assert "exhausted buffer pools:" not in proc.hooks.find(DeadlockDetector).report()


@pytest.mark.parametrize("pool_name, knob", [
    ("c0->1.recv", "recv_pool_chunks"),  # the message in flight waits
    ("c0->1.sink", "rdma_sink_chunks"),  # the sender waits, flight releases
])
def test_pool_exhausted_by_messages_in_flight_appears_in_report(pool_name, knob):
    """Whatever carries a message — a flight or, on traced runs, the wire
    process — a receive pool or RDMA sink it finds dry is named by the
    post-mortem while the wait lasts, and cleared once the chunk comes."""
    from repro.net import Message, MsgType

    cluster = make_cluster(num_nodes=2, sanitize="deadlock", **{knob: 1})
    proc = cluster.create_process()
    eng, net = cluster.engine, cluster.net
    landed = []

    def handler(msg):
        landed.append(eng.now)
        yield eng.timeout(0)

    net.router(1).register(MsgType.PAGE_GRANT, handler)

    def sender():
        for _ in range(2):  # back to back: the second finds the pool dry
            yield from net.send(
                Message(MsgType.PAGE_GRANT, 0, 1, page_data=bytes(4096)))

    eng.process(sender())
    pool = {p.name: p for conn in net.connections.values()
            for p in (conn.recv_pool, conn.rdma_sink)}[pool_name]
    until = 0.0
    while not pool.stalls:
        until += 0.25
        eng.run(until=until)
    assert len(landed) < 2
    assert (f"pool {pool_name} exhausted (1 chunks, 1 waiter(s))"
            in proc.hooks.find(DeadlockDetector).report())
    assert proc.hooks.find(DeadlockDetector).watcher.stalls()
    eng.run()
    assert len(landed) == 2 and pool.stalls == 1 and pool.in_use == 0
    assert proc.hooks.find(DeadlockDetector).watcher.stalls() == []
    assert "exhausted buffer pools:" not in proc.hooks.find(DeadlockDetector).report()
