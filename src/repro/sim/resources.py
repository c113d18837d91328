"""Contention primitives for the simulation kernel.

Three resources cover everything the rack model needs:

* :class:`FairShareResource` — processor-sharing (GPS) service of divisible
  work, used for NIC link bandwidth and per-node DRAM bandwidth.  ``k``
  concurrent jobs each progress at ``capacity(k) / k``; job completions and
  arrivals recompute the schedule exactly, so the model is not a timestep
  approximation.
* :class:`Resource` — a counted FIFO resource (semaphore), used for CPU
  cores and bounded buffer pools.
* :class:`Store` — an unbounded FIFO of items with blocking ``get``, used
  for message queues and work-delegation mailboxes.

Hot-path notes: event display names are precomputed per resource (no
per-call f-strings), an uncontended :meth:`Resource.acquire` hands out a
shared pre-granted event instead of allocating one per call, and a
:class:`FairShareResource` state change is one pass over its jobs —
verified bit-for-bit against the two-pass GPS recomputation of
``tests/oracles/fairshare.py``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional

from repro.sim.engine import _INF, Engine, Event, SimulationError

_EPS = 1e-9


class _ShareJob:
    __slots__ = ("remaining", "event", "tag")

    def __init__(self, remaining: float, event: Event, tag: Any):
        self.remaining = remaining
        self.event = event
        self.tag = tag


class FairShareResource:
    """Exact generalized-processor-sharing service of divisible jobs.

    ``capacity`` is in work units per microsecond (e.g. bytes/us for a
    memory channel).  An optional ``contention`` callable maps the number of
    active jobs to an *effective* aggregate capacity, modelling throughput
    degradation under many concurrent streams (memory-controller row-buffer
    conflicts etc.); it defaults to the ideal constant capacity.
    """

    __slots__ = (
        "engine",
        "capacity",
        "name",
        "_consume_name",
        "_contention",
        "_jobs",
        "_last_update",
        "_timer_id",
        "total_served",
    )

    def __init__(
        self,
        engine: Engine,
        capacity: float,
        contention: Optional[Callable[[int], float]] = None,
        name: str = "",
    ):
        if capacity <= 0:
            raise SimulationError(f"capacity must be positive, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._consume_name = f"{name}.consume"
        self._contention = contention
        self._jobs: List[_ShareJob] = []
        self._last_update = 0.0
        self._timer_id = 0  # invalidates stale completion timers
        self.total_served = 0.0

    # -- public API -------------------------------------------------------

    def consume(self, amount: float, tag: Any = None) -> Event:
        """Return an event that triggers once *amount* units of service
        have been delivered to this job under fair sharing.  A negative or
        non-finite amount is refused before the resource is touched."""
        if not 0 <= amount < _INF:  # false for NaN as well
            raise ValueError(f"fair-share resource {self.name!r}: amount "
                             f"must be finite and >= 0, got {amount!r}")
        event = Event(self.engine, self._consume_name)
        if amount == 0:
            event.succeed()
        else:
            self._settle(_ShareJob(float(amount), event, tag))
        return event

    def effective_capacity(self, n_jobs: Optional[int] = None) -> float:
        n = len(self._jobs) if n_jobs is None else n_jobs
        if n == 0 or self._contention is None:
            return self.capacity
        cap = self._contention(n)
        if cap <= 0:
            raise SimulationError(f"contention model returned {cap} for n={n}")
        return cap

    # -- internals ----------------------------------------------------------

    def _settle(self, arrival: Optional[_ShareJob]) -> None:
        """One state change in one pass over the jobs: charge each the
        ``cap / n * dt`` served since the last change, add *arrival*, finish
        those left with at most ``_EPS`` in list order, and arm the next
        completion under a fresh timer id (a stale timer fires, idle)."""
        now = self.engine.now
        jobs = self._jobs
        n = len(jobs)
        dt = now - self._last_update
        self._last_update = now
        self._timer_id += 1
        served = 0.0  # x - 0.0 == x: a same-instant change charges nothing
        if dt > 0 and n:
            served = self.effective_capacity(n) / n * dt
            self.total_served += served * n
        finished = []
        low = _INF
        for job in jobs:
            left = job.remaining = job.remaining - served
            if left <= _EPS:
                finished.append(job)
            elif left < low:
                low = left
        if arrival is not None:
            jobs.append(arrival)
            if arrival.remaining <= _EPS:
                finished.append(arrival)
            elif arrival.remaining < low:
                low = arrival.remaining
        while True:
            if finished:
                self._jobs = jobs = [j for j in jobs if j.remaining > _EPS]
                for job in finished:
                    job.event.succeed()
            if not jobs:
                return
            when = now + low / (self.effective_capacity(len(jobs)) / len(jobs))
            if when > now:
                self.engine._schedule_at(when, self._on_timer, self._timer_id)
                return
            # the remaining service is below float resolution at the
            # current clock value: treat those jobs as served now,
            # otherwise the timer would respawn at the same instant
            cut = low + _EPS
            finished = [j for j in jobs if j.remaining <= cut]
            for job in finished:
                job.remaining = 0.0
            low = min([j.remaining for j in jobs if j.remaining > 0], default=_INF)

    def _on_timer(self, timer_id: int) -> None:
        if timer_id == self._timer_id:  # else superseded by a later change
            self._settle(None)


class Resource:
    """A counted FIFO resource: up to *capacity* concurrent holders.

    ``acquire()`` returns an event that triggers when a slot is granted;
    the holder must call ``release()`` exactly once.  Uncontended grants
    reuse one shared already-triggered event: the engine treats a done
    event identically however many waiters yield it, so per-call
    allocation would buy nothing.
    """

    __slots__ = ("engine", "capacity", "name", "_in_use", "_waiters", "_granted")

    def __init__(self, engine: Engine, capacity: int, name: str = ""):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: Deque[Event] = deque()
        granted = Event(engine, f"{name}.acquire")
        granted._done = True
        granted._value = None
        granted._callbacks = None
        self._granted = granted

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queued(self) -> int:
        return len(self._waiters)

    def acquire(self) -> Event:
        if self._in_use < self.capacity:
            self._in_use += 1
            return self._granted
        event = Event(self.engine, self._granted.name)
        self._waiters.append(event)
        return event

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._in_use -= 1


class Store:
    """Unbounded FIFO of items with blocking ``get``.

    ``put`` is immediate; ``get`` returns an event whose value is the next
    item (triggering immediately if one is queued).  Items are matched to
    getters strictly in FIFO order on both sides.
    """

    __slots__ = ("engine", "name", "_get_name", "_items", "_getters")

    def __init__(self, engine: Engine, name: str = ""):
        self.engine = engine
        self.name = name
        self._get_name = f"{name}.get"
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        event = Event(self.engine, self._get_name)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def try_get(self) -> Any:
        """Non-blocking get; returns None when empty."""
        if self._items:
            return self._items.popleft()
        return None
