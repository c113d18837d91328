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
    "bad", [-1.0, -1, math.nan, np.float64("nan"), "x", None, [1.0], object()],
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
