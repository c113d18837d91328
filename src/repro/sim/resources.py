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
shared pre-granted event instead of allocating one per call, and
:meth:`FairShareResource.consume` takes a batched single-job fast path
when the resource is idle — all verified bit-for-bit against the exact
per-arrival GPS recomputation.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional

from repro.sim.engine import Engine, Event, SimulationError

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
        have been delivered to this job under fair sharing."""
        event = Event(self.engine, self._consume_name)
        if amount <= 0:
            event.succeed()
            return event
        if not self._jobs:
            # batched idle-arrival fast path: with no competing jobs the
            # advance pass charges nothing and the schedule is a single
            # completion timer.  Arithmetic mirrors _advance/_reschedule
            # exactly (including the capacity/1 division) so sim times are
            # bit-identical to the general path.
            engine = self.engine
            now = engine.now
            self._last_update = now
            remaining = float(amount)
            self._jobs.append(_ShareJob(remaining, event, tag))
            if remaining > _EPS:
                rate = self.effective_capacity(1) / 1
                when = now + remaining / rate
                if when > now:
                    self._timer_id += 1
                    engine._schedule_at(when, self._on_timer, self._timer_id)
                    return event
            # sub-resolution job: fall back to the general settlement
            self._reschedule()
            return event
        self._advance()
        self._jobs.append(_ShareJob(float(amount), event, tag))
        self._reschedule()
        return event

    def effective_capacity(self, n_jobs: Optional[int] = None) -> float:
        n = len(self._jobs) if n_jobs is None else n_jobs
        if n == 0:
            return self.capacity
        if self._contention is None:
            return self.capacity
        cap = self._contention(n)
        if cap <= 0:
            raise SimulationError(f"contention model returned {cap} for n={n}")
        return cap

    # -- internals ----------------------------------------------------------

    def _rate_per_job(self) -> float:
        n = len(self._jobs)
        if n == 0:
            return 0.0
        return self.effective_capacity(n) / n

    def _advance(self) -> None:
        """Charge service delivered since the last state change."""
        now = self.engine.now
        dt = now - self._last_update
        self._last_update = now
        if dt <= 0 or not self._jobs:
            return
        served = self._rate_per_job() * dt
        self.total_served += served * len(self._jobs)
        for job in self._jobs:
            job.remaining -= served

    def _reschedule(self) -> None:
        """Schedule the next completion (invalidating any stale timer)."""
        self._timer_id += 1
        while True:
            jobs = self._jobs
            if any(j.remaining <= _EPS for j in jobs):
                finished = [j for j in jobs if j.remaining <= _EPS]
                self._jobs = [j for j in jobs if j.remaining > _EPS]
                for job in finished:
                    job.event.succeed()
                jobs = self._jobs
            if not jobs:
                return
            rate = self.effective_capacity(len(jobs)) / len(jobs)
            next_remaining = min(j.remaining for j in jobs)
            when = self.engine.now + next_remaining / rate
            if when <= self.engine.now:
                # the remaining service is below float resolution at the
                # current clock value: treat those jobs as served now,
                # otherwise the timer would respawn at the same instant
                for job in jobs:
                    if job.remaining <= next_remaining + _EPS:
                        job.remaining = 0.0
                continue
            self.engine._schedule_at(when, self._on_timer, self._timer_id)
            return

    def _on_timer(self, timer_id: int) -> None:
        if timer_id != self._timer_id:
            return  # superseded by an arrival or another completion
        self._advance()
        self._reschedule()


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
