"""Fixture: Python-level awaiters under a ``sim`` path.  A fast path
returns a generator, so both spellings of the iterator protocol must trip
``yield-discipline``."""


class Immediate:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __iter__(self):
        return self

    def __next__(self):
        raise StopIteration(self.value)


class Borrowed:
    __slots__ = ("it",)

    __next__ = Immediate.__next__
