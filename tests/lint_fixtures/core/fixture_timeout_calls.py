"""Fixture: Timeout events under a ``core`` path, where a sleep has one
spelling (the yielded delay) and a Timeout is only for a deadline that
``any_of`` races or ``all_of`` joins.  Every ``timeout`` call here must
trip ``yield-discipline``; the comment that names one must not."""


def sleeps(engine, cost):
    yield engine.timeout(5.0)
    value = yield engine.timeout(1.0, "value")
    t = engine.timeout(5); yield t
    return value + cost


def deadline_never_raced(engine, reply):
    # engine.timeout(d) would be a deadline here, if any_of raced it
    deadline = engine.timeout(30.0)
    yield reply
    deadline.cancel()
