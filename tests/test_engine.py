"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import Engine, Event, Interrupt, Process, SimulationError, Timeout


def test_timeout_advances_clock():
    eng = Engine()

    def body():
        yield eng.timeout(5.0)
        yield eng.timeout(2.5)
        return "done"

    assert eng.run_process(body()) == "done"
    assert eng.now == 7.5


def test_zero_timeout_is_legal():
    eng = Engine()

    def body():
        yield eng.timeout(0.0)
        return eng.now

    assert eng.run_process(body()) == 0.0


def test_negative_timeout_rejected():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.timeout(-1.0)


def test_timeout_carries_value():
    eng = Engine()

    def body():
        value = yield eng.timeout(1.0, value="payload")
        return value

    assert eng.run_process(body()) == "payload"


def test_event_wakes_waiter_with_value():
    eng = Engine()
    evt = eng.event()

    def waiter():
        value = yield evt
        return value

    def trigger():
        yield eng.timeout(3.0)
        evt.succeed(42)

    proc = eng.process(waiter())
    eng.process(trigger())
    eng.run()
    assert proc.value == 42
    assert eng.now == 3.0


def test_event_double_trigger_rejected():
    eng = Engine()
    evt = eng.event()
    evt.succeed(1)
    with pytest.raises(SimulationError):
        evt.succeed(2)


def test_event_value_before_trigger_rejected():
    eng = Engine()
    evt = eng.event()
    with pytest.raises(SimulationError):
        _ = evt.value


def test_failed_event_raises_in_waiter():
    eng = Engine()
    evt = eng.event()

    def waiter():
        try:
            yield evt
        except ValueError as err:
            return f"caught:{err}"
        return "not raised"

    proc = eng.process(waiter())
    evt.fail(ValueError("boom"))
    eng.run()
    assert proc.value == "caught:boom"


def test_process_exception_propagates_to_joiner():
    eng = Engine()

    def crasher():
        yield eng.timeout(1.0)
        raise RuntimeError("crash")

    def joiner():
        try:
            yield eng.process(crasher())
        except RuntimeError:
            return "saw crash"
        return "missed"

    assert eng.run_process(joiner()) == "saw crash"


def test_process_return_value_via_join():
    eng = Engine()

    def child():
        yield eng.timeout(2.0)
        return 99

    def parent():
        result = yield eng.process(child())
        return result

    assert eng.run_process(parent()) == 99


def test_yielding_non_event_fails_process():
    eng = Engine()

    def bad():
        yield object()  # neither an Event nor a delay

    proc = eng.process(bad())
    eng.run()
    assert proc.triggered and not proc.ok
    with pytest.raises(SimulationError):
        _ = proc.value


def test_all_of_waits_for_every_child():
    eng = Engine()

    def child(delay, value):
        yield eng.timeout(delay)
        return value

    def parent():
        procs = [eng.process(child(d, d * 10)) for d in (3.0, 1.0, 2.0)]
        values = yield eng.all_of(procs)
        return values

    assert eng.run_process(parent()) == [30.0, 10.0, 20.0]
    assert eng.now == 3.0


def test_all_of_empty_triggers_immediately():
    eng = Engine()

    def parent():
        values = yield eng.all_of([])
        return values

    assert eng.run_process(parent()) == []


def test_interrupt_reaches_waiting_process():
    eng = Engine()

    def sleeper():
        try:
            yield eng.timeout(100.0)
        except Interrupt as intr:
            return f"interrupted:{intr.cause}@{eng.now}"
        return "slept"

    def interrupter(target):
        yield eng.timeout(1.0)
        target.interrupt("wakeup")

    proc = eng.process(sleeper())
    eng.process(interrupter(proc))
    eng.run()
    # the process saw the interrupt at t=1; the abandoned timeout still
    # drains from the queue afterwards, which is fine
    assert proc.value == "interrupted:wakeup@1.0"


def test_stale_event_after_interrupt_is_ignored():
    eng = Engine()
    log = []

    def sleeper():
        try:
            yield eng.timeout(10.0)
            log.append("timeout fired in body")
        except Interrupt:
            log.append("interrupted")
        yield eng.timeout(50.0)
        log.append("second sleep done")

    proc = eng.process(sleeper())

    def interrupter():
        yield eng.timeout(1.0)
        proc.interrupt()

    eng.process(interrupter())
    eng.run()
    assert log == ["interrupted", "second sleep done"]
    assert eng.now == 51.0


def test_run_until_stops_clock():
    eng = Engine()

    def body():
        yield eng.timeout(100.0)

    eng.process(body())
    eng.run(until=30.0)
    assert eng.now == 30.0
    eng.run()
    assert eng.now == 100.0


def test_deterministic_ordering_fifo_at_same_time():
    """Events scheduled for the same instant fire in scheduling order."""
    eng = Engine()
    order = []

    def maker(tag):
        def body():
            yield eng.timeout(5.0)
            order.append(tag)

        return body

    for tag in range(10):
        eng.process(maker(tag)())
    eng.run()
    assert order == list(range(10))


def test_run_process_detects_deadlock():
    eng = Engine()
    evt = eng.event()

    def stuck():
        yield evt

    with pytest.raises(SimulationError, match="did not finish"):
        eng.run_process(stuck())


def test_max_events_guard():
    eng = Engine()

    def spinner():
        while True:
            yield eng.timeout(0.0)

    eng.process(spinner())
    with pytest.raises(SimulationError, match="max_events"):
        eng.run(max_events=1000)


def test_schedule_in_past_rejected():
    eng = Engine()

    def body():
        yield eng.timeout(5.0)
        eng._schedule_at(1.0, lambda: None)

    proc = eng.process(body())
    eng.run()
    assert not proc.ok
