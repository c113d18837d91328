"""Deterministic discrete-event simulation engine.

The engine keeps two scheduling structures merged into one logical
priority queue of ``[time, sequence, fn, args]`` entries:

* a **heap** for entries scheduled in the future (``_schedule_at``), and
* a same-time FIFO **fast lane** (a deque) for entries scheduled at the
  current instant (``_schedule_now``) — event callbacks are by far the
  hottest scheduling operation and a deque append/popleft is much cheaper
  than a heap push/pop.

Because the clock never moves backwards while entries are pending and the
sequence number is monotonically increasing, the fast lane is always
sorted by ``(time, sequence)``; the run loop merges the two structures by
comparing their heads, which preserves the exact global dispatch order of
a single heap.  Simulated activities are generator functions wrapped in
:class:`Process`; whenever a process yields a waitable (:class:`Event`,
:class:`Timeout`, or another :class:`Process`), it is suspended until the
waitable triggers, at which point the waitable's value is sent back into
the generator (or its exception is thrown into it).  Yielding a plain
number sleeps that many microseconds: a wait nobody else can observe,
race or cancel needs no Event, only its queue entry, and none at all when
the run loop would pop it next: a process woken from a sleep runs its next
sleep in place (*run-ahead*) while nothing else is due before it.

Time is a float in **microseconds**.  All ordering ties are broken by a
monotonically increasing sequence number, which makes runs bit-for-bit
reproducible for a fixed seed.

Cancellation is *tagged*: a cancelled :class:`Timeout` nulls the ``fn``
slot of its own queue entry, so the dispatcher skips it with a single
``is None`` check instead of probing ``__self__`` attributes on every
iteration; when cancelled entries pile up the heap is compacted in one
pass.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, List, Optional

_UNSET = object()
_INF = float("inf")


class SimulationError(Exception):
    """Raised for illegal engine usage (double trigger, bad yield, ...)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The interrupted process receives the exception at its current yield
    point and may catch it to implement retries or cancellation.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts untriggered.  It is completed exactly once, either with
    :meth:`succeed` (delivering a value) or :meth:`fail` (delivering an
    exception).  Callbacks registered before completion run, in registration
    order, at the simulation time of the completion.
    """

    __slots__ = ("engine", "_value", "_exc", "_done", "_callbacks", "name")

    def __init__(self, engine: "Engine", name: str = ""):
        self.engine = engine
        self.name = name
        self._value: Any = _UNSET
        self._exc: Optional[BaseException] = None
        self._done = False
        self._callbacks: Optional[List[Callable[["Event"], None]]] = []

    @property
    def triggered(self) -> bool:
        return self._done

    @property
    def ok(self) -> bool:
        return self._done and self._exc is None

    @property
    def value(self) -> Any:
        if not self._done:
            raise SimulationError(f"event {self!r} has not triggered yet")
        if self._exc is not None:
            raise self._exc
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        if self._done:
            raise SimulationError(f"event {self!r} already triggered")
        self._done = True
        self._value = value
        self.engine._schedule_callbacks(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        if self._done:
            raise SimulationError(f"event {self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._done = True
        self._exc = exc
        self.engine._schedule_callbacks(self)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run *fn(event)* when the event completes (immediately-scheduled
        if it already has)."""
        if self._done:
            self.engine._schedule_now(fn, self)
        else:
            assert self._callbacks is not None
            self._callbacks.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self._done else "pending"
        label = self.name or self.__class__.__name__
        return f"<{label} {state} @{id(self):#x}>"


class Timeout(Event):
    """An event that triggers after a fixed simulated delay."""

    __slots__ = ("delay", "_cancelled", "_entry")

    def __init__(self, engine: "Engine", delay: float, value: Any = None):
        if not 0 <= delay < _INF:  # false for NaN as well
            raise SimulationError(f"timeout delay must be >= 0 and finite, got {delay}")
        # Inlined Event.__init__ minus the f-string name: Timeouts are the
        # most-allocated event type and the label is recomputed lazily by
        # __repr__ on the rare debugging path instead.
        self.engine = engine
        self.name = ""
        self._value = _UNSET
        self._exc = None
        self._done = False
        self._callbacks = []
        self.delay = delay
        self._cancelled = False
        # inlined _schedule_at (Timeouts are the most-scheduled entry kind);
        # the delay was checked above so `when` is finite and never past
        engine._seq += 1
        self._entry = entry = [engine.now + delay, engine._seq, self._fire, (value,)]
        heapq.heappush(engine._queue, entry)

    def cancel(self) -> None:
        """Discard an untriggered timeout.  Its queue entry is skipped
        without advancing the clock, so an abandoned deadline (e.g. a retry
        timer whose reply arrived) does not distort the final sim time when
        :meth:`Engine.run` drains the queue."""
        if not self._done and not self._cancelled:
            self._cancelled = True
            entry = self._entry
            entry[2] = None
            entry[3] = None
            self._entry = None
            # let go of the waiters (an AnyOf's bound _on_child holds the
            # race, and through it the whole run); a fresh list, so a later
            # add_callback still works
            self._callbacks = []
            engine = self.engine
            engine._cancelled_entries += 1
            if (
                engine._cancelled_entries > 64
                and engine._cancelled_entries * 2 > len(engine._queue)
            ):
                engine._compact()

    def _fire(self, value: Any) -> None:
        # Unlike succeed(), which may be reached from arbitrarily deep in
        # model code and must defer callbacks to the queue, _fire only ever
        # runs as a dispatched queue entry (top of stack), so its callbacks
        # can run synchronously at this very dispatch position — saving a
        # scheduling round trip per elapsed timeout.  The reference engine
        # (tests/oracles/engine.py) goes through succeed() instead; the
        # determinism differential tests compare the two.
        self._entry = None
        if self._done:
            raise SimulationError(f"event {self!r} already triggered")
        self._done = True
        self._value = value
        callbacks = self._callbacks
        self._callbacks = None
        if callbacks:
            for fn in callbacks:
                fn(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self._done else "pending"
        return f"<Timeout({self.delay}) {state} @{id(self):#x}>"


class Process(Event):
    """A running generator.  As an :class:`Event`, it triggers when the
    generator returns (value = the ``return`` value) or raises."""

    __slots__ = ("generator", "_waiting_on", "_interrupts", "_resume_cb", "_wake_cb")

    def __init__(self, engine: "Engine", generator: Generator, name: str = ""):
        super().__init__(engine, name=name or getattr(generator, "__name__", "process"))
        self.generator = generator
        #: the Event waited on, or the sequence number of the sleep in progress
        self._waiting_on: Any = None
        self._interrupts: List[Interrupt] = []
        # bind once: every wait registers one of these, and a fresh bound
        # method per yield is measurable allocation churn on the hot loop
        # (each is a cycle through self: _step drops both once it finishes)
        self._resume_cb = self._resume
        self._wake_cb = self._wake
        engine._schedule_now(self._resume_cb, None)

    @property
    def is_alive(self) -> bool:
        return not self._done

    def fail(self, exc: BaseException) -> "Process":
        """Fail the process.  Failed from outside (fail-stop recovery
        failing a thread that died with its node), it is abandoned where it
        waits: its pre-bound callbacks are dropped and its generator is
        closed, so neither keeps the run alive."""
        Event.fail(self, exc)
        self._resume_cb = self._wake_cb = None
        if not self.generator.gi_running:
            self.generator.close()
        return self

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its yield point."""
        if self._done:
            return
        self._interrupts.append(Interrupt(cause))
        # Detach from the event we were waiting on; the stale callback
        # checks _waiting_on and becomes a no-op.
        self._waiting_on = None
        self.engine._schedule_now(self._step, _UNSET, None)

    def _resume(self, event: Optional[Event]) -> None:
        if self._done:
            return
        if event is not None and self._waiting_on is not event:
            return  # stale wake-up (we were interrupted away from it)
        self._waiting_on = None
        if event is None:
            self._step(None, None)
        elif event._exc is not None:
            self._step(_UNSET, event._exc)
        else:
            self._step(event._value, None)

    def _wake(self, token: int) -> None:
        # the end of a private sleep; an Interrupt that pulled the process
        # out of it (and whatever it waits on since) left this entry stale
        if self._waiting_on == token:
            self._waiting_on = None
            self._step(None, None, True)

    def _step(
        self, value: Any, exc: Optional[BaseException], ahead: bool = False
    ) -> None:
        # *ahead*: this step is a whole dispatch (entered from _wake, never
        # one of several callbacks of a _fire or _run_callbacks), so a sleep
        # the run loop would pop next anyway may run in place
        if self._done:
            return
        engine = self.engine
        generator = self.generator
        prev = engine.current_process
        # The loop continues stepping inline when the yielded waitable has
        # already triggered, avoiding a full scheduling round trip per
        # already-done yield (the reference engine always reschedules).
        while True:
            engine.current_process = self
            try:
                if self._interrupts:
                    target = generator.throw(self._interrupts.pop(0))
                elif exc is not None:
                    target = generator.throw(exc)
                else:
                    target = generator.send(value)
            except StopIteration as stop:
                self._resume_cb = self._wake_cb = None
                self.succeed(stop.value)
                return
            except BaseException as err:  # noqa: BLE001 - propagate to waiters
                if isinstance(err, (KeyboardInterrupt, SystemExit)):
                    raise
                self.fail(err)
                return
            finally:
                engine.current_process = prev
            if not isinstance(target, Event):
                # a number of microseconds is a private sleep: one heap
                # entry, taking its sequence number where engine.timeout()
                # would have, and nothing anybody else could wait on
                try:
                    if not 0 <= target < _INF:  # NaN as well
                        raise ValueError(target)
                except (TypeError, ValueError):
                    self.fail(
                        SimulationError(
                            f"process {self.name!r} yielded {target!r}; only an "
                            "Event (Timeout, Process, AllOf, AnyOf) or a finite "
                            "delay in microseconds >= 0 may be yielded"
                        )
                    )
                    return
                engine._seq += 1
                when = engine.now + target
                # run-ahead: nothing is due before the wake-up, so take it
                # here instead of a heap push and pop; a tie goes through
                # the heap (the head has the lower seq)
                if ahead and not engine._fastlane:
                    queue = engine._queue
                    if (
                        (not queue or when < queue[0][0])
                        and when <= engine._until
                        and when < engine._next_sample
                        and engine._ahead_left
                    ):
                        engine._ahead_left -= 1
                        engine.now = when
                        value = exc = None
                        continue
                self._waiting_on = seq = engine._seq
                heapq.heappush(engine._queue, [when, seq, self._wake_cb, (seq,)])
                return
            self._waiting_on = target
            hooks = engine._on_waiting
            if hooks:
                for waiting in hooks:
                    waiting(self, target)
            if target._done and not self._interrupts:
                self._waiting_on = None
                if target._exc is not None:
                    value, exc = _UNSET, target._exc
                else:
                    value, exc = target._value, None
                continue
            # inlined target.add_callback(self._resume_cb): this is the
            # single hottest callback registration in the simulator
            if target._done:  # only with an interrupt pending
                engine._schedule_now(self._resume_cb, target)
            else:
                target._callbacks.append(self._resume_cb)
            return


class AllOf(Event):
    """Triggers when every child event has triggered; value is their list
    of values.  Fails fast on the first child failure."""

    __slots__ = ("_children", "_pending")

    def __init__(self, engine: "Engine", events: Iterable[Event]):
        super().__init__(engine, name="AllOf")
        self._children = list(events)
        self._pending = len(self._children)
        if self._pending == 0:
            self.succeed([])
            return
        for child in self._children:
            child.add_callback(self._on_child)

    def _on_child(self, child: Event) -> None:
        if self._done:
            return
        if child._exc is not None:
            self._children = ()  # settled: the children are let go
            self.fail(child._exc)
            return
        self._pending -= 1
        if self._pending == 0:
            values = [c._value for c in self._children]
            self._children = ()
            self.succeed(values)


class AnyOf(Event):
    """Triggers with the value (or exception) of the first child event to
    complete; later completions are ignored.  The losing children keep
    running — callers that race a reply against a timeout must check which
    child actually triggered."""

    __slots__ = ("_children",)

    def __init__(self, engine: "Engine", events: Iterable[Event], name: str = ""):
        super().__init__(engine, name=name or "AnyOf")
        self._children = list(events)
        if not self._children:
            raise SimulationError("AnyOf requires at least one event")
        for child in self._children:
            child.add_callback(self._on_child)

    def _on_child(self, child: Event) -> None:
        if self._done:
            return
        self._children = ()  # settled: the losers are let go
        if child._exc is not None:
            self.fail(child._exc)
        else:
            self.succeed(child._value)


class Hooks(dict):
    """Who is watching one engine or one ``DexProcess``: probe name -> the
    list of its observers' bound ``on_<probe>`` methods.

    :meth:`add` binds an observer's methods once.  A site names the event
    and iterates its list inline (``for granted in proc.hooks["grant"]:
    granted(vpn, ...)``), never naming an observer and with no function in
    between; per-access and per-message sites hold their list from
    construction and test its truth first.  The lists are only ever appended
    to, and only here, so a list held early sees later observers."""

    __slots__ = ("observers",)

    def __init__(self, *probes: str):
        super().__init__((probe, []) for probe in probes)
        self.observers: List[Any] = []

    def add(self, observer: Any) -> None:
        self.observers.append(observer)
        for probe, bound in self.items():
            method = getattr(observer, "on_" + probe, None)
            if method is not None:
                bound.append(method)

    def find(self, kind: type) -> Optional[Any]:
        """The first observer of type *kind*, or None."""
        return next((o for o in self.observers if isinstance(o, kind)), None)

    def detach(self) -> None:
        """Let go of every observer (they keep what they recorded); a probe
        list a site holds is emptied in place."""
        for bound in self.values():
            bound.clear()
        self.observers.clear()


#: what an engine observer may define ``on_<probe>`` for: process
#: lifecycle (``process_waiting`` for a wait on an Event, not for a private
#: sleep); a buffer pool running dry / its oldest waiter getting a chunk
#: (the waiter need not be a process); a span closing and a traced message
#: posted (``repro.obs.tracing``); a message serialized onto its link
ENGINE_PROBES = (
    "process_created", "process_waiting", "process_finished",
    "pool_stall", "pool_resume", "span_close", "message", "wire",
)


class _NoSpan:
    """What :meth:`Engine.span` hands out with tracing off: one shared
    context manager that enters as None and does nothing."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NO_SPAN = _NoSpan()


class Engine:
    """The event loop.

    Typical usage::

        eng = Engine()

        def hello():
            yield 5.0
            return "done"

        proc = eng.process(hello())
        eng.run()
        assert eng.now == 5.0 and proc.value == "done"

    ``tests/oracles/engine.py`` subclasses this into the one-heap,
    nothing-inlined reference the determinism differential tests use.
    """

    __slots__ = (
        "now",
        "_queue",
        "_fastlane",
        "_seq",
        "_running",
        "_cancelled_entries",
        "seed",
        "_rng",
        "hooks",
        "_on_created",
        "_on_waiting",
        "_on_finished",
        "_on_sample",
        "_sample_interval",
        "_next_sample",
        "_until",
        "_ahead_left",
        "current_process",
        "tracer",
        "events_dispatched",
    )

    def __init__(self, seed: int = 0) -> None:
        self.now: float = 0.0
        self._queue: List[list] = []
        self._fastlane: deque = deque()
        self._seq = 0
        self._running = False
        #: cancelled Timeout entries still sitting in the queue; entries
        #: are tagged (fn slot nulled) and skipped with one ``is None``
        #: check, and the heap is compacted when they pile up
        self._cancelled_entries = 0
        #: master seed for this simulation; every stochastic choice (chaos
        #: schedules, workload init) must derive from it so runs are
        #: reproducible end to end
        self.seed = seed
        self._rng: Optional[Any] = None
        #: the observers of this run (see :meth:`add_hook`); every list is
        #: empty in normal runs.  The lifecycle lists are held here as well
        #: because the process step reads one per yield.
        self.hooks = hooks = Hooks(*ENGINE_PROBES)
        self._on_created: List[Callable] = hooks["process_created"]
        self._on_waiting: List[Callable] = hooks["process_waiting"]
        self._on_finished: List[Callable] = hooks["process_finished"]
        #: periodic sim-time samplers, the ``sample`` probe (see
        #: :meth:`add_sampler`); with none registered the deadline stays
        #: +inf and the run loop's only obligation is one float compare per
        #: dispatch
        self._on_sample: List[Callable] = []
        self._sample_interval = 0.0
        self._next_sample = _INF
        #: the running run()'s stop time, and how many sleeps may still run
        #: ahead in place before it settles its dispatch count (none outside
        #: run(); see there)
        self._until = _INF
        self._ahead_left = 0
        #: the Process whose generator is currently executing (None between
        #: steps); the repro.obs tracer keys span stacks by this
        self.current_process: Optional[Any] = None
        #: the repro.obs Tracer attached to this engine, or None (tracing
        #: off): :meth:`span` reads it, and so does a hot site that must
        #: branch (the one handle for one tracer)
        self.tracer: Optional[Any] = None
        #: total dispatches across all run() calls (perf accounting)
        self.events_dispatched = 0

    @property
    def rng(self) -> Any:
        """The engine-owned seeded RNG (``numpy.random.Generator``).

        Created lazily so simulations that never draw randomness pay
        nothing; the numpy import stays out of the module top level to keep
        the core engine dependency-free."""
        if self._rng is None:
            from numpy.random import default_rng

            self._rng = default_rng(self.seed)
        return self._rng

    def add_hook(self, observer: Any) -> None:
        """Let *observer* watch this run: whichever ``on_<probe>`` methods
        of :data:`ENGINE_PROBES` it defines are called from then on, after
        those of the observers added before it."""
        self.hooks.add(observer)

    def span(self, name: str, **attrs: Any) -> Any:
        """The span seam: ``with engine.span("fault", node=n, vpn=v):``
        opens *name* on the attached tracer, or enters the shared no-op
        (as None) when tracing is off."""
        tracer = self.tracer
        if tracer is None:
            return _NO_SPAN
        return tracer.span(name, **attrs)

    def detach_observers(self) -> None:
        """Let go of the tracer, every observer and every sampler, so the
        engine holds none of them once the run is over (they keep what
        they recorded)."""
        self.tracer = None
        self.hooks.detach()
        self._on_sample.clear()
        self._next_sample = _INF

    def add_sampler(self, fire: Callable[[float], None], interval_us: float) -> None:
        """Register a periodic sim-time sampler (the DexScope hook).

        *fire(deadline)* runs **between** dispatches, at the first dispatch
        whose timestamp reaches each grid deadline ``k * interval_us`` — a
        deterministic function of the event stream.  Samplers never
        schedule events, consume sequence numbers, or advance the clock, so
        a sampled run is bit-identical to an unsampled one.  Idle gaps
        produce one firing, not a catch-up storm: after firing, the grid
        jumps past the current instant."""
        if interval_us <= 0:
            raise SimulationError(
                f"sampler interval must be positive: {interval_us}"
            )
        if self._on_sample and interval_us != self._sample_interval:
            raise SimulationError("all samplers share one grid interval")
        self._sample_interval = float(interval_us)
        if self._next_sample == _INF:
            self._next_sample = self.now + self._sample_interval
        self._on_sample.append(fire)

    def _fire_samplers(self, when: float) -> float:
        """Fire every sampler at the pending grid deadline, then advance
        the grid past *when*; returns the new deadline."""
        deadline = self._next_sample
        for fire in self._on_sample:
            fire(deadline)
        interval = self._sample_interval
        periods = int((when - deadline) / interval) + 1
        nxt = deadline + periods * interval
        while nxt <= when:  # float rounding can land short of `when`
            nxt += interval
        self._next_sample = nxt
        return nxt

    # -- scheduling primitives ------------------------------------------

    def _schedule_at(self, when: float, fn: Callable, *args: Any) -> list:
        if not self.now <= when < _INF:  # NaN as well
            raise SimulationError(f"cannot schedule at {when} (now {self.now})")
        self._seq += 1
        entry = [when, self._seq, fn, args]
        heapq.heappush(self._queue, entry)
        return entry

    def _schedule_now(self, fn: Callable, *args: Any) -> None:
        self._seq += 1
        self._fastlane.append([self.now, self._seq, fn, args])

    def _schedule_callbacks(self, event: Event) -> None:
        callbacks = event._callbacks
        event._callbacks = None
        if callbacks:
            # the single-callback case (one waiter) dispatches the callback
            # directly at the identical queue position, skipping the
            # _run_callbacks trampoline; the append is _schedule_now inlined
            self._seq += 1
            if len(callbacks) == 1:
                self._fastlane.append(
                    [self.now, self._seq, callbacks[0], (event,)]
                )
            else:
                self._fastlane.append(
                    [self.now, self._seq, self._run_callbacks, (event, callbacks)]
                )

    @staticmethod
    def _run_callbacks(event: Event, callbacks: List[Callable]) -> None:
        for fn in callbacks:
            fn(event)

    def _compact(self) -> None:
        """Drop tagged (cancelled) entries from the heap in one pass.

        In place: run() holds a local alias of the heap list."""
        self._queue[:] = [entry for entry in self._queue if entry[2] is not None]
        heapq.heapify(self._queue)
        self._cancelled_entries = 0

    # -- public factories ------------------------------------------------

    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        proc = Process(self, generator, name=name)
        if self._on_created or self._on_finished:
            # keyed on the lifecycle lists alone: the finish callback is a
            # dispatch, and an observer of anything else must not add one
            for created in self._on_created:
                created(proc)
            proc.add_callback(self._notify_finished)
        return proc

    def _notify_finished(self, proc: Event) -> None:
        for finished in self._on_finished:
            finished(proc)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event], name: str = "") -> AnyOf:
        return AnyOf(self, events, name=name)

    # -- main loop --------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> float:
        """Drain the event queue.

        Stops when the queue empties, when simulated time would pass
        *until*, or (as a runaway guard) after *max_events* dispatches.
        Returns the final simulation time.  The clock never moves back:
        *until* below :attr:`now` (or NaN) raises :class:`SimulationError`,
        and *until* equal to it only dispatches what is due at ``now``.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        if until is not None and not until >= self.now:
            raise SimulationError(
                f"cannot run until {until}: the clock is already at {self.now}")
        self._running = True
        dispatched = 0
        queue = self._queue
        fastlane = self._fastlane
        heappop = heapq.heappop
        self._until = limit = _INF if until is None else until
        next_sample = self._next_sample
        # Sleeps run ahead in Process._step are dispatches this loop does not
        # see: lend them at most half the remaining budget and settle the
        # count only when `dispatched` reaches `stop`.  The total cannot
        # reach max_events before that, and the last loan is 0.
        granted = self._ahead_left = max(max_events, 0) // 2
        stop = max_events - granted
        try:
            while True:
                # merge the fast lane and the heap by comparing heads;
                # list comparison orders by (when, seq) and seq is unique
                if fastlane:
                    if queue and queue[0] < fastlane[0]:
                        entry = queue[0]
                        from_heap = True
                    else:
                        entry = fastlane[0]
                        from_heap = False
                elif queue:
                    entry = queue[0]
                    from_heap = True
                else:
                    if until is not None:
                        self.now = until
                    break
                when, _seq, fn, args = entry
                if fn is None:
                    # tagged (cancelled) entry: skip without advancing time
                    if from_heap:
                        heappop(queue)
                    else:
                        fastlane.popleft()
                    self._cancelled_entries -= 1
                    continue
                if when > limit:
                    self.now = until
                    break
                if from_heap:
                    heappop(queue)
                else:
                    fastlane.popleft()
                self.now = when
                if when >= next_sample:
                    next_sample = self._fire_samplers(when)
                fn(*args)
                dispatched += 1
                if dispatched >= stop:
                    dispatched += granted - self._ahead_left
                    granted = self._ahead_left = (max_events - dispatched) // 2
                    if dispatched >= max_events:
                        raise SimulationError(
                            f"exceeded max_events={max_events}; likely a livelock"
                        )
                    stop = max_events - granted
        finally:
            self._running = False
            self.events_dispatched += dispatched + granted - self._ahead_left
            self._ahead_left = 0
        return self.now

    def run_process(self, generator: Generator, name: str = "") -> Any:
        """Convenience: spawn *generator*, run to completion, return its value."""
        proc = self.process(generator, name=name)
        self.run()
        if not proc.triggered:
            raise SimulationError(
                f"process {proc.name!r} did not finish (deadlock: waiting on "
                "an event nobody triggers)"
            )
        return proc.value
