"""Lint fixture: what a generator process may not yield.  Nothing, None, a
string and a negative constant must trip ``yield-discipline``; a delay
(constant, name, arithmetic) and a waitable must not — and the two
``timeout`` sleeps only when the file is vetted as part of ``src/``."""


def broken_process(engine, cost):
    yield
    yield None
    yield "soon"
    yield -1.0
    yield 5
    yield 0.0
    yield cost
    yield 2 * cost.per_page + 1.0
    yield engine.timeout(1.0)
    yield engine.timeout(1.0, "value")  # carrying a value, still a sleep
