"""Unit + property tests for the contention primitives."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Engine, FairShareResource, Resource, SimulationError, Store


# ---------------------------------------------------------------------------
# FairShareResource
# ---------------------------------------------------------------------------


def test_single_job_runs_at_full_capacity():
    eng = Engine()
    share = FairShareResource(eng, capacity=100.0)

    def job():
        yield share.consume(500.0)
        return eng.now

    assert eng.run_process(job()) == pytest.approx(5.0)


def test_two_equal_jobs_halve_the_rate():
    eng = Engine()
    share = FairShareResource(eng, capacity=100.0)
    finish = {}

    def job(tag, amount):
        yield share.consume(amount)
        finish[tag] = eng.now

    eng.process(job("a", 500.0))
    eng.process(job("b", 500.0))
    eng.run()
    # both share the 100/us channel: each sees 50/us, so both end at 10us
    assert finish["a"] == pytest.approx(10.0)
    assert finish["b"] == pytest.approx(10.0)


def test_late_arrival_slows_earlier_job():
    eng = Engine()
    share = FairShareResource(eng, capacity=100.0)
    finish = {}

    def early():
        yield share.consume(500.0)
        finish["early"] = eng.now

    def late():
        yield eng.timeout(2.5)
        yield share.consume(250.0)
        finish["late"] = eng.now

    eng.process(early())
    eng.process(late())
    eng.run()
    # early runs alone for 2.5us (250 served), then shares: both have 250
    # left at 50/us -> +5us -> both finish at 7.5
    assert finish["early"] == pytest.approx(7.5)
    assert finish["late"] == pytest.approx(7.5)


def test_completion_releases_bandwidth_to_survivor():
    eng = Engine()
    share = FairShareResource(eng, capacity=100.0)
    finish = {}

    def job(tag, amount):
        yield share.consume(amount)
        finish[tag] = eng.now

    eng.process(job("small", 100.0))
    eng.process(job("big", 400.0))
    eng.run()
    # shared until small finishes at t=2 (100 each served); big has 300
    # left alone at 100/us -> finishes at t=5
    assert finish["small"] == pytest.approx(2.0)
    assert finish["big"] == pytest.approx(5.0)


def test_zero_amount_completes_immediately():
    eng = Engine()
    share = FairShareResource(eng, capacity=10.0)

    def job():
        yield share.consume(0.0)
        return eng.now

    assert eng.run_process(job()) == 0.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0, -1e-12])
def test_a_bad_amount_is_refused_and_the_resource_keeps_serving(bad):
    """A NaN job once stayed in the job list and poisoned every later
    consume with "cannot schedule at nan"."""
    eng = Engine()
    share = FairShareResource(eng, capacity=100.0, name="n0.dram")

    def job():
        yield share.consume(100.0)
        with pytest.raises(ValueError, match="n0.dram"):
            share.consume(bad)
        assert share._jobs == [] and share.total_served == 100.0
        yield share.consume(0)
        yield share.consume(500.0)
        return eng.now

    assert eng.run_process(job()) == pytest.approx(6.0)


def test_contention_model_reduces_capacity():
    eng = Engine()
    share = FairShareResource(
        eng, capacity=100.0, contention=lambda n: 100.0 if n <= 1 else 50.0
    )
    finish = {}

    def job(tag):
        yield share.consume(100.0)
        finish[tag] = eng.now

    eng.process(job("a"))
    eng.process(job("b"))
    eng.run()
    # aggregate capacity halves with 2 jobs: 25/us each -> 4us
    assert finish["a"] == pytest.approx(4.0)
    assert finish["b"] == pytest.approx(4.0)


def test_invalid_capacity_rejected():
    eng = Engine()
    with pytest.raises(SimulationError):
        FairShareResource(eng, capacity=0.0)


@settings(max_examples=50, deadline=None)
@given(
    amounts=st.lists(
        st.floats(min_value=0.1, max_value=1000.0), min_size=1, max_size=8
    ),
    offsets=st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=8, max_size=8),
)
def test_fair_share_conserves_work(amounts, offsets):
    """Property: every job completes, and no job finishes before the time
    it would take at full capacity (service can never exceed capacity)."""
    eng = Engine()
    share = FairShareResource(eng, capacity=10.0)
    finish = {}

    def job(idx, offset, amount):
        yield eng.timeout(offset)
        yield share.consume(amount)
        finish[idx] = eng.now

    for idx, amount in enumerate(amounts):
        eng.process(job(idx, offsets[idx], amount))
    eng.run()
    assert len(finish) == len(amounts)
    for idx, amount in enumerate(amounts):
        lower_bound = offsets[idx] + amount / 10.0
        assert finish[idx] >= lower_bound - 1e-6


@settings(max_examples=30, deadline=None)
@given(
    amounts=st.lists(
        st.floats(min_value=0.5, max_value=100.0), min_size=2, max_size=6
    )
)
def test_simultaneous_equal_jobs_finish_together(amounts):
    """Jobs of equal size starting together must finish at the same time."""
    eng = Engine()
    share = FairShareResource(eng, capacity=7.0)
    size = amounts[0]
    finish = []

    def job():
        yield share.consume(size)
        finish.append(eng.now)

    n = len(amounts)
    for _ in range(n):
        eng.process(job())
    eng.run()
    assert len(finish) == n
    assert max(finish) - min(finish) < 1e-6
    assert finish[0] == pytest.approx(size * n / 7.0)


# ---------------------------------------------------------------------------
# Resource
# ---------------------------------------------------------------------------


def test_resource_grants_up_to_capacity():
    eng = Engine()
    res = Resource(eng, capacity=2)
    a, b, c = res.acquire(), res.acquire(), res.acquire()
    assert a.triggered and b.triggered and not c.triggered
    res.release()
    eng.run()
    assert c.triggered


def test_resource_fifo_order():
    eng = Engine()
    res = Resource(eng, capacity=1)
    res.acquire()
    waiters = [res.acquire() for _ in range(3)]
    res.release()
    eng.run()
    assert [w.triggered for w in waiters] == [True, False, False]


def test_release_of_idle_resource_rejected():
    eng = Engine()
    res = Resource(eng, capacity=1)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_counts():
    eng = Engine()
    res = Resource(eng, capacity=2)
    res.acquire()
    res.acquire()
    res.acquire()
    assert res.in_use == 2
    assert res.queued == 1


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------


def test_store_put_then_get():
    eng = Engine()
    store = Store(eng)
    store.put("x")

    def getter():
        item = yield store.get()
        return item

    assert eng.run_process(getter()) == "x"


def test_store_get_blocks_until_put():
    eng = Engine()
    store = Store(eng)

    def getter():
        item = yield store.get()
        return (item, eng.now)

    def putter():
        yield eng.timeout(4.0)
        store.put("late")

    proc = eng.process(getter())
    eng.process(putter())
    eng.run()
    assert proc.value == ("late", 4.0)


def test_store_fifo_both_sides():
    eng = Engine()
    store = Store(eng)
    results = []

    def getter(tag):
        item = yield store.get()
        results.append((tag, item))

    eng.process(getter("g1"))
    eng.process(getter("g2"))
    store.put("a")
    store.put("b")
    eng.run()
    assert results == [("g1", "a"), ("g2", "b")]


def test_store_try_get():
    eng = Engine()
    store = Store(eng)
    assert store.try_get() is None
    store.put(1)
    assert store.try_get() == 1
    assert len(store) == 0
