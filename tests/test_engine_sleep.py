"""The private sleep: a process that yields a number of microseconds.

It must be indistinguishable, on the sim clock and in dispatch order, from
``yield engine.timeout(d)`` — the spelling it replaced in ``src/`` and the
one ``tests/oracles/engine.py`` still turns it into — while allocating no
``Timeout``.  Each case runs on the production engine and on the reference.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles.engine import ReferenceEngine
from repro import DexCluster
from repro.params import SimParams
from repro.runtime import MemoryAllocator
from repro.sim import Engine, Interrupt, SimulationError, Timeout

ENGINES = [
    pytest.param(Engine, id="fast"),
    pytest.param(ReferenceEngine, id="plain"),
]


@pytest.mark.parametrize("engine_cls", ENGINES)
def test_sleep_advances_the_clock_and_resumes_with_none(engine_cls):
    eng = engine_cls()

    def body():
        got = yield 5.0
        assert got is None
        yield 2.5
        return eng.now

    assert eng.run_process(body()) == 7.5


@pytest.mark.parametrize("engine_cls", ENGINES)
@pytest.mark.parametrize("delay", [0, 0.0, 3, np.float64(1.25), np.int64(2)])
def test_zero_int_and_numpy_delays(engine_cls, delay):
    """``serve/manager.py``'s inter-arrival delay is a ``numpy.float64``."""
    eng = engine_cls()

    def body():
        yield delay
        return eng.now

    assert eng.run_process(body()) == float(delay)
    assert type(eng.now) in (float, np.float64)


@pytest.mark.parametrize("engine_cls", ENGINES)
@pytest.mark.parametrize(
    "bad", [-1.0, -1, math.nan, np.float64("nan"), math.inf, "x", None, [1.0],
            pytest.param(object(), id="object()")],  # repr holds an address
    ids=repr)
def test_a_bad_delay_fails_the_process(engine_cls, bad):
    eng = engine_cls()
    after = []

    def body():
        yield 1.0
        yield bad
        after.append("resumed")

    proc = eng.process(body())
    eng.run()
    assert proc.triggered and not proc.ok and not after
    with pytest.raises(SimulationError, match="yielded"):
        _ = proc.value
    assert eng.now == 1.0 and not eng._queue  # nothing was scheduled for it


@pytest.mark.parametrize("engine_cls", ENGINES)
@pytest.mark.parametrize("bad", [-1.0, math.nan, np.float64("nan"), math.inf],
                         ids=repr)
def test_a_bad_timeout_delay_is_refused(engine_cls, bad):
    """``engine.timeout`` refuses what a yielded sleep refuses: a NaN deadline
    would otherwise be dispatched in turn and leave the clock reading NaN,
    and one at infinity would end the run there."""
    eng = engine_cls()
    fired = []
    for delay in (1.0, 3.0, bad, 5.0):
        try:
            eng.timeout(delay).add_callback(lambda _t: fired.append(eng.now))
        except SimulationError as err:
            assert delay is bad and "must be >= 0" in str(err)
    eng.run()
    assert fired == [1.0, 3.0, 5.0]


@pytest.mark.parametrize("engine_cls", ENGINES)
@pytest.mark.parametrize("when", [math.nan, math.inf], ids=repr)
def test_a_non_finite_entry_time_is_refused(engine_cls, when):
    """NaN compares false with everything, so it once passed the "not in
    the past" test and corrupted the heap order."""
    eng = engine_cls()
    with pytest.raises(SimulationError, match="cannot schedule at"):
        eng._schedule_at(when, lambda: None)
    assert not eng._queue


@pytest.mark.parametrize("amount, value", [
    ("cpu_us", math.inf), ("mem_bytes", math.inf),
    ("cpu_us", math.nan), ("mem_bytes", math.nan),
    ("cpu_us", -1.0), ("mem_bytes", -1.0),
])
def test_a_bad_compute_amount_fails_precisely(amount, value):
    """Infinity once died in the sampler arithmetic (ZeroDivisionError), and
    NaN or a negative amount was a free 0 us compute."""
    cluster = DexCluster(num_nodes=2)

    def main(ctx):
        yield from ctx.compute(**{amount: value})

    with pytest.raises(ValueError, match=f"compute {amount} must be >= 0"):
        cluster.simulate(main)
    assert cluster.now == 0.0


def _tie_order(engine_cls, spellings):
    """Processes created in order, all due at t=1 then t=1 again; each
    sleeps the way its spelling says.  Returns the wake order."""
    eng = engine_cls()
    order = []

    def body(tag, plain):
        for lap in range(2):
            yield (1.0 if plain else eng.timeout(1.0))
            order.append((tag, lap, eng.now))

    for tag, plain in enumerate(spellings):
        eng.process(body(tag, plain))
    eng.run()
    return order, eng.events_dispatched, eng._seq


@pytest.mark.parametrize("engine_cls", ENGINES)
def test_tie_order_is_that_of_engine_timeout(engine_cls):
    """Same instant, mixed spellings: creation order wins either way, and a
    sleep is exactly one dispatched entry and one sequence number."""
    old_way = _tie_order(engine_cls, [False, False, False, False])
    for spellings in ([True, True, True, True], [True, False, True, False],
                      [False, True, True, False]):
        assert _tie_order(engine_cls, spellings) == old_way
    assert [tag for tag, _, _ in old_way[0]] == [0, 1, 2, 3, 0, 1, 2, 3]


@pytest.mark.parametrize("engine_cls", ENGINES)
def test_interrupt_during_a_sleep_then_a_second_sleep(engine_cls):
    """The abandoned wake-up is ignored (its token is stale) but still
    drains from the queue, advancing the clock as an abandoned Timeout's
    entry does."""
    eng = engine_cls()
    log = []

    def sleeper():
        try:
            yield 10.0
            log.append("first sleep ended in the body")
        except Interrupt as intr:
            log.append(f"interrupted:{intr.cause}@{eng.now}")
        yield 3.0          # ends at t=4, before the stale wake-up at t=10
        log.append(f"second sleep done@{eng.now}")
        yield 20.0         # spans the stale wake-up: must not be cut short
        log.append(f"third sleep done@{eng.now}")

    proc = eng.process(sleeper())

    def interrupter():
        yield 1.0
        proc.interrupt("wakeup")

    eng.process(interrupter())
    eng.run()
    assert log == ["interrupted:wakeup@1.0", "second sleep done@4.0",
                   "third sleep done@24.0"]
    assert eng.now == 24.0


@pytest.mark.parametrize("engine_cls", ENGINES)
def test_stale_wake_alone_still_advances_the_clock(engine_cls):
    eng = engine_cls()

    def sleeper():
        try:
            yield 50.0
        except Interrupt:
            return "out"

    proc = eng.process(sleeper())

    def interrupter():
        yield 1.0
        proc.interrupt()

    eng.process(interrupter())
    eng.run()
    assert proc.value == "out"
    assert eng.now == 50.0  # as with an abandoned Timeout


@pytest.mark.parametrize("engine_cls", ENGINES)
def test_run_until_cuts_a_sleep_and_a_later_run_resumes_it(engine_cls):
    eng = engine_cls()
    woke = []

    def body():
        yield 30.0
        woke.append(eng.now)
        yield 0.5
        woke.append(eng.now)

    eng.process(body())
    eng.run(until=10.0)
    assert woke == [] and eng.now == 10.0
    eng.run(until=30.0)          # the wake-up AT the boundary fires
    assert woke == [30.0]
    eng.run()
    assert woke == [30.0, 30.5]


@pytest.mark.parametrize("engine_cls", ENGINES)
def test_a_finished_process_ignores_its_pending_wake(engine_cls):
    eng = engine_cls()

    def body():
        yield 5.0
        raise AssertionError("woken after being failed")

    proc = eng.process(body())
    eng.run(until=1.0)
    proc.fail(RuntimeError("node died"))
    eng.run()
    assert not proc.ok and eng.now == 5.0


# ---------------------------------------------------------------------------
# run-ahead: a sleep whose wake-up is next in line runs in place
# ---------------------------------------------------------------------------


def _unahead(eng):
    """Forbid every run-ahead on *eng*: a sampler grid finer than any
    sleep below puts a deadline before each wake-up.  Samplers never touch
    the queue, the clock or a sequence number, so the run is the same."""
    eng.add_sampler(lambda deadline: None, 1e-3)
    return eng


def _spin(eng, delay, log=None, laps=None):
    def body():
        lap = 0
        while laps is None or lap < laps:
            yield delay
            lap += 1
            if log is not None:
                log.append(eng.now)

    return eng.process(body())


@pytest.mark.parametrize("engine_cls", ENGINES)
@pytest.mark.parametrize("max_events", [1, 2, 3, 4, 1000, 1001])
@pytest.mark.parametrize("kicked_off", [False, True])
def test_a_lone_sleeper_meets_max_events_exactly(engine_cls, max_events,
                                                 kicked_off):
    """``while True: yield 1.0`` never leaves its own dispatch on the
    production engine; its sleeps still count, and the guard trips after
    exactly *max_events* of them with the clock where it would stand had
    every wake-up gone through the heap.  *kicked_off*: an earlier run()
    dispatched the process start, so this run's first dispatch is a
    wake-up that may run ahead."""
    seen = []
    for eng in (engine_cls(), _unahead(engine_cls())):
        _spin(eng, 1.0)
        if kicked_off:
            eng.run(until=0.5)
        with pytest.raises(SimulationError, match="max_events"):
            eng.run(max_events=max_events)
        seen.append((eng.events_dispatched, eng.now, eng._seq))
    assert seen[0] == seen[1]
    assert seen[0][0] == max_events + kicked_off
    if engine_cls is Engine:  # the kick-off at 0, then one wake-up per us
        assert seen[0][1] == max_events - 1 + kicked_off


@pytest.mark.parametrize("engine_cls", ENGINES)
@pytest.mark.parametrize("until", [4.5, 4.0])
def test_run_until_stops_a_sleeper_running_ahead(engine_cls, until):
    """The sleep that crosses ``until`` stays pending and a second
    ``run()`` resumes it; a wake-up exactly at ``until`` still runs."""
    seen = []
    for eng in (engine_cls(), _unahead(engine_cls())):
        woke = []
        _spin(eng, 1.0, woke, laps=10)
        assert eng.run(until=until) == until
        assert woke == [1.0, 2.0, 3.0, 4.0]
        assert [entry[0] for entry in eng._queue] == [5.0]
        first = (eng.events_dispatched, eng._seq)
        eng.run()
        assert woke == [float(lap) for lap in range(1, 11)] and eng.now == 10.0
        seen.append((first, eng.events_dispatched, eng._seq))
    assert seen[0] == seen[1]


def _sampled(engine_cls):
    eng = engine_cls()
    fired = []
    eng.add_sampler(
        lambda deadline: fired.append(
            (deadline, eng.now, len(eng._queue) + len(eng._fastlane))),
        1.0)
    woke = []
    _spin(eng, 0.25, woke, laps=17)
    _spin(eng, 0.375, woke, laps=9)
    eng.run()
    return fired, woke, eng.now


@pytest.mark.parametrize("engine_cls", ENGINES)
def test_a_sampler_sees_the_same_deadlines_and_queue(engine_cls):
    """Nothing runs ahead across a sampler deadline: every firing happens
    at the same dispatch, with as many entries pending, as on the
    reference."""
    fired, woke, now = _sampled(engine_cls)
    assert (fired, woke, now) == _sampled(ReferenceEngine)
    assert [deadline for deadline, _, _ in fired] == [1.0, 2.0, 3.0, 4.0]
    assert now == 4.25


@pytest.mark.parametrize("engine_cls", ENGINES)
def test_a_wake_up_tying_the_heap_head_goes_after_it(engine_cls):
    """At 1.0 the first sleeper sleeps until 2.0, the time of the second's
    pending wake-up: the tie goes through the heap, where the older entry
    wins, instead of running ahead of it."""
    eng = engine_cls()
    log = []

    def first():
        yield 1.0
        yield 1.0
        log.append(("first", eng.now))

    def second():
        yield 2.0
        log.append(("second", eng.now))

    eng.process(first())
    eng.process(second())
    eng.run()
    assert log == [("second", 2.0), ("first", 2.0)]


@pytest.mark.parametrize("engine_cls", ENGINES)
def test_a_shared_timeout_resumes_every_waiter_at_its_time(engine_cls):
    """Two processes wait on one Timeout and the first to resume sleeps
    again at once.  Its step is one of the Timeout's callbacks, not a whole
    dispatch, so the sleep must not run ahead: the second waiter still
    resumes at 5.0."""
    eng = engine_cls()
    deadline = eng.timeout(5.0)
    log = []

    def waiter(tag, naps):
        yield deadline
        log.append((tag, eng.now))
        for _ in range(naps):
            yield 1.0
            log.append((tag, eng.now))

    eng.process(waiter("a", 2))
    eng.process(waiter("b", 0))
    eng.run()
    assert log == [("a", 5.0), ("b", 5.0), ("a", 6.0), ("a", 7.0)]


def test_a_sleep_next_in_line_skips_the_heap(monkeypatch):
    """On the production engine a lone sleeper's wake-ups after the first
    run in place: the loop dispatches one wake entry for 100 sleeps, and
    ``events_dispatched`` still counts every one."""
    from repro.sim.engine import Process

    wakes = []
    wake = Process._wake

    def counting_wake(self, token):
        wakes.append(token)
        wake(self, token)

    monkeypatch.setattr(Process, "_wake", counting_wake)
    eng = Engine()
    _spin(eng, 1.0, laps=100)
    eng.run()
    assert eng.now == 100.0 and eng.events_dispatched == 101
    assert len(wakes) == 1


# ---------------------------------------------------------------------------
# random sleep / timeout / any_of mixes, production vs reference
# ---------------------------------------------------------------------------

#: few distinct delays, zero among them: ties are the interesting case
DELAYS = st.sampled_from([0, 0.0, 0.5, 1, 1.5, 2.0])
STEPS = st.one_of(
    st.tuples(st.just("sleep"), DELAYS),
    st.tuples(st.just("timeout"), DELAYS),
    st.tuples(st.just("any_of"), DELAYS, DELAYS),
    st.tuples(st.just("cancel"), DELAYS, DELAYS),
)
PROGRAMS = st.lists(st.lists(STEPS, min_size=1, max_size=6),
                    min_size=1, max_size=5)


def _run_program(engine_cls, program, sleep_as_timeout=False):
    eng = engine_cls()
    log = []

    def body(tag, steps):
        for i, step in enumerate(steps):
            kind = step[0]
            if kind == "sleep" and not sleep_as_timeout:
                yield step[1]
            elif kind in ("sleep", "timeout"):
                yield eng.timeout(step[1])
            elif kind == "any_of":
                # a sleep cannot be raced: the raced ones stay Timeouts
                yield eng.any_of([eng.timeout(step[1]), eng.timeout(step[2])])
            else:  # a deadline armed, then cancelled after a private sleep
                deadline = eng.timeout(step[1] + 5.0)
                yield step[2] if not sleep_as_timeout else eng.timeout(step[2])
                deadline.cancel()
            log.append((tag, i, eng.now))

    procs = [eng.process(body(tag, steps)) for tag, steps in enumerate(program)]
    eng.run()
    assert all(p.ok for p in procs)
    return log, eng.now, eng._seq, eng.events_dispatched


@settings(max_examples=150, deadline=None)
@given(PROGRAMS)
def test_random_mixes_agree_with_the_old_spelling_and_the_reference(program):
    # every sleep spelled engine.timeout(d): the very same run on either
    # engine — a sleep takes one sequence number and one dispatch, exactly
    # where the Timeout did
    for engine_cls in (Engine, ReferenceEngine):
        assert _run_program(engine_cls, program) == _run_program(
            engine_cls, program, sleep_as_timeout=True)
    # production vs reference: same order, same clock (the reference
    # dispatches more).  Not for zero delays: production resumes a fired
    # timeout's waiter inline, so a process re-arming at the same instant
    # has always been ordered differently there, however it spells it.
    if all(delay > 0 for steps in program for step in steps
           for delay in step[1:]):
        assert _run_program(Engine, program)[:2] == \
            _run_program(ReferenceEngine, program)[:2]


# ---------------------------------------------------------------------------
# allocation guard
# ---------------------------------------------------------------------------


def test_a_pingpong_hammer_constructs_no_timeout(monkeypatch):
    """Chaos off, two threads on two nodes adding to one word for 1 ms of
    sim time once the second has migrated (DexBench's ``pingpong`` in
    small): every wait on that path is a private sleep or a real Event, so
    not one ``Timeout`` is built."""
    built = []
    init = Timeout.__init__

    def counting_init(self, engine, delay, value=None):
        built.append(delay)
        init(self, engine, delay, value)

    monkeypatch.setattr(Timeout, "__init__", counting_init)
    cluster = DexCluster(num_nodes=2, params=SimParams(chaos="", sanitize=""))
    proc = cluster.create_process()
    var = MemoryAllocator(proc).alloc_global(8, tag="shared_var")

    def hammer(ctx, dest):
        count = 0
        if dest is not None:
            yield from ctx.migrate(dest)
        while ctx.now < 2_000.0:  # the first migration takes ~0.8 ms
            yield from ctx.atomic_add_i64(var, 1, site="hammer")
            yield from ctx.compute(cpu_us=0.1)
            count += 1
        return count

    threads = [proc.spawn_thread(hammer, None), proc.spawn_thread(hammer, 1)]

    def main(ctx):
        counts = yield from proc.join_all(threads)
        return counts, (yield from ctx.read_i64(var))

    counts, value = cluster.simulate(main, proc)
    assert value == sum(counts) > 1_000
    assert len(proc.stats.fault_latencies) > 5
    assert cluster.engine.events_dispatched > 5_000
    assert built == []


def test_two_fast_path_results_from_one_context_stay_apart():
    """The eager ``atomic_add_i64`` and the cpu-only ``compute`` return
    generators, never a per-context object the next call overwrites: two
    results taken before either is consumed keep their own values and
    delays, and every core slot is given back."""
    cluster = DexCluster(num_nodes=2, params=SimParams(chaos="", sanitize=""))
    proc = cluster.create_process()
    alloc = MemoryAllocator(proc)
    a = alloc.alloc_global(8, tag="a")
    b = alloc.alloc_global(8, tag="b")

    def main(ctx):
        yield from ctx.migrate(1)
        yield from ctx.write_i64(a, 10)   # faults the page in EXCLUSIVE
        yield from ctx.write_i64(b, 20)
        ga = ctx.atomic_add_i64(a, 1)     # so both adds take the eager path
        gb = ctx.atomic_add_i64(b, 1)
        va = yield from ga
        vb = yield from gb
        start = ctx.now
        c1 = ctx.compute(cpu_us=1.0)
        c2 = ctx.compute(cpu_us=5.0)
        yield from c1
        first = ctx.now - start
        yield from c2
        return va, vb, first, ctx.now - start

    assert cluster.simulate(main, proc) == (10, 20, 1.0, 6.0)
    assert [node.cores._in_use for node in cluster.nodes] == [0, 0]
