"""Edge cases of the DexSpeed engine internals: the same-time FIFO fast
lane, tagged-entry timeout cancellation with heap compaction, the
``run(until)`` boundary (including the fast-lane spill), and the inline
resume — each exercised on the production engine and on the reference
engine of ``tests/oracles/engine.py`` where the two take different code
paths."""

import pytest

from oracles.engine import HeapOnlyEngine, ReferenceEngine
from repro.sim import Engine
from repro.sim.engine import SimulationError

ENGINES = [
    pytest.param(Engine, id="fast"),
    pytest.param(ReferenceEngine, id="plain"),
]


# ---------------------------------------------------------------------------
# fast lane vs heap: merged dispatch order
# ---------------------------------------------------------------------------


def _same_time_order(engine_cls):
    """Interleave heap entries (timeouts) and fast-lane entries (callbacks
    of already-done events) at one instant; return the dispatch order."""
    eng = engine_cls()
    order = []

    def waiter(tag, delay):
        yield eng.timeout(delay)
        order.append(tag)

    def poker(tag):
        done = eng.event()
        done.succeed()           # callbacks of a done event take the
        yield done               # _schedule_now path: the fast lane
        order.append(tag)

    # creation order is the required dispatch order at t=0
    eng.process(waiter("t0", 0.0))
    eng.process(poker("p0"))
    eng.process(waiter("t1", 0.0))
    eng.process(poker("p1"))
    eng.process(waiter("t2", 0.0))
    eng.run()
    return order


def test_fastlane_and_heap_merge_in_seq_order():
    # same inlining on both sides: only the lane an entry waits in differs
    fast = _same_time_order(Engine)
    plain = _same_time_order(HeapOnlyEngine)
    assert fast == plain
    assert sorted(fast) == ["p0", "p1", "t0", "t1", "t2"]


@pytest.mark.parametrize("engine_cls", ENGINES)
def test_fastlane_does_not_jump_future_heap_entries(engine_cls):
    """A same-time callback enqueued *during* dispatch at time t must run
    before any strictly later heap entry, but after earlier same-time
    entries already queued."""
    eng = engine_cls()
    order = []

    def trigger():
        evt = eng.event()
        evt.add_callback(lambda e: order.append("cb"))
        yield eng.timeout(1.0)
        evt.succeed()            # enqueues cb at t=1 (fast lane)
        order.append("trigger")

    def late():
        yield eng.timeout(2.0)
        order.append("late")

    eng.process(trigger())
    eng.process(late())
    eng.run()
    assert order == ["trigger", "cb", "late"]
    assert eng.now == 2.0


# ---------------------------------------------------------------------------
# cancellation: tagged entries, compaction, interleavings
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine_cls", ENGINES)
def test_cancelled_timeouts_do_not_advance_clock(engine_cls):
    eng = engine_cls()

    def body():
        keep = eng.timeout(10.0)
        drop = eng.timeout(500.0)  # a retry deadline that won't be needed
        drop.cancel()
        yield keep

    eng.process(body())
    eng.run()
    assert eng.now == 10.0  # the cancelled 500.0 entry never fired


@pytest.mark.parametrize("engine_cls", ENGINES)
def test_mass_cancellation_triggers_compaction(engine_cls):
    """Cancelling most of the queue must shrink it in place (the tagged
    entries are physically dropped once they dominate) and leave the
    survivors' order intact."""
    eng = engine_cls()
    fired = []

    def arm():
        timeouts = [eng.timeout(float(i + 1)) for i in range(200)]
        for i, t in enumerate(timeouts):
            t.add_callback(lambda _e, i=i: fired.append(i))
        yield eng.timeout(0.0)
        for i, t in enumerate(timeouts):
            if i % 10 != 0:      # cancel 180 of 200
                t.cancel()

    eng.process(arm())
    eng.run()
    assert fired == list(range(0, 200, 10))
    assert eng.now == 191.0      # timeout index 190, delay 191.0
    assert eng._cancelled_entries == 0
    assert len(eng._queue) == 0


@pytest.mark.parametrize("engine_cls", ENGINES)
def test_cancel_after_fire_is_a_noop(engine_cls):
    eng = engine_cls()

    def body():
        t = eng.timeout(1.0)
        yield t
        t.cancel()               # already fired: must not corrupt anything
        t.cancel()
        yield eng.timeout(1.0)

    eng.process(body())
    eng.run()
    assert eng.now == 2.0


@pytest.mark.parametrize("engine_cls", ENGINES)
def test_private_sleep_after_cancellation_storm(engine_cls):
    """A plain sleep after a fired one must schedule afresh even when an
    unrelated cancellation storm compacted the heap in between."""
    eng = engine_cls()
    times = []

    def body():
        yield 1.0
        times.append(eng.now)
        junk = [eng.timeout(50.0 + i) for i in range(100)]
        for t in junk:
            t.cancel()
        yield 2.0
        times.append(eng.now)

    eng.process(body())
    eng.run()
    assert times == [1.0, 3.0]


# ---------------------------------------------------------------------------
# run(until) boundaries
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine_cls", ENGINES)
def test_until_is_inclusive(engine_cls):
    eng = engine_cls()
    fired = []

    def body():
        yield eng.timeout(30.0)
        fired.append(eng.now)
        yield eng.timeout(0.5)
        fired.append(eng.now)

    eng.process(body())
    eng.run(until=30.0)          # the entry AT the boundary fires
    assert fired == [30.0]
    assert eng.now == 30.0
    eng.run()
    assert fired == [30.0, 30.5]


@pytest.mark.parametrize("engine_cls", ENGINES)
def test_until_with_empty_queue_advances_clock(engine_cls):
    eng = engine_cls()
    eng.run(until=42.0)
    assert eng.now == 42.0


def test_until_spills_pending_fastlane_to_heap():
    """A second run() with an earlier `until` parks the pending fast-lane
    entries back on the heap (their sortedness invariant must survive the
    clock moving below them) and still dispatches them correctly later."""
    eng = Engine()
    order = []

    def sleeper():
        yield eng.timeout(100.0)
        order.append("sleeper")

    eng.process(sleeper())
    eng.run(until=30.0)
    assert eng.now == 30.0
    # a fresh process's first step is a fast-lane entry at t=30
    def second():
        order.append("second")
        yield eng.timeout(1.0)
        order.append("second-done")

    eng.process(second())
    eng.run(until=10.0)          # below every pending entry: spill + park
    assert order == []
    assert len(eng._fastlane) == 0
    eng.run()
    assert order == ["second", "second-done", "sleeper"]
    assert eng.now == 100.0


# ---------------------------------------------------------------------------
# guards
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine_cls", ENGINES)
def test_max_events_guard_in_both_modes(engine_cls):
    eng = engine_cls()

    def spinner():
        while True:
            yield eng.timeout(0.0)

    eng.process(spinner())
    with pytest.raises(SimulationError, match="max_events"):
        eng.run(max_events=500)


@pytest.mark.parametrize("engine_cls", ENGINES)
def test_events_dispatched_accumulates(engine_cls):
    eng = engine_cls()

    def body():
        for _ in range(5):
            yield eng.timeout(1.0)

    eng.process(body())
    eng.run(until=2.0)
    first = eng.events_dispatched
    assert first > 0
    eng.run()
    assert eng.events_dispatched > first
