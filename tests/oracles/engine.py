"""The reference event engine: every entry goes through the one
``(when, seq)`` heap, nothing is resumed inline, no message object is
reused.  Production :class:`~repro.sim.engine.Engine` adds a same-time FIFO
fast lane, inline resumes of already-triggered waits, synchronous timeout
callbacks and a message freelist on top; the determinism differential tests
run every app on both and require identical behaviour.
"""

from __future__ import annotations

from repro.sim.engine import Engine, Event, Process, SimulationError, Timeout


class HeapOnlyEngine(Engine):
    """No fast lane: same-time entries are heap entries like any other."""

    def _schedule_now(self, fn, *args):
        self._schedule_at(self.now, fn, *args)

    def _schedule_callbacks(self, event):
        callbacks, event._callbacks = event._callbacks, None
        if callbacks:
            self._schedule_at(self.now, self._run_callbacks, event, callbacks)


class ReferenceTimeout(Timeout):
    """Fires like any other event: callbacks take a scheduling round trip."""

    def _fire(self, value):
        self._entry = None
        self.succeed(value)


class ReferenceProcess(Process):
    """One generator step per dispatch, even when the yielded event has
    already triggered; a yielded delay is a :class:`ReferenceTimeout`, the
    way every sleep was once spelled."""

    def _step(self, value, exc):
        if self._done:
            return
        engine = self.engine
        prev, engine.current_process = engine.current_process, self
        try:
            if self._interrupts:
                target = self.generator.throw(self._interrupts.pop(0))
            elif exc is not None:
                target = self.generator.throw(exc)
            else:
                target = self.generator.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Exception as err:
            self.fail(err)
            return
        finally:
            engine.current_process = prev
        if isinstance(target, Event):
            for waiting in engine._on_waiting:
                waiting(self, target)
        else:
            try:
                valid = target >= 0  # false for NaN as well
            except (TypeError, ValueError):
                valid = False
            if not valid:
                self.fail(SimulationError(
                    f"process {self.name!r} yielded {target!r}; only an "
                    "Event or a delay in microseconds >= 0 may be yielded"))
                return
            target = ReferenceTimeout(engine, target)
        self._waiting_on = target
        target.add_callback(self._resume_cb)


class ReferenceEngine(HeapOnlyEngine):
    """One heap, non-inlining timeouts and processes."""

    def timeout(self, delay, value=None):
        return ReferenceTimeout(self, delay, value)

    def process(self, generator, name=""):
        proc = ReferenceProcess(self, generator, name=name)
        if self._on_created or self._on_finished:
            for created in self._on_created:
                created(proc)
            proc.add_callback(self._notify_finished)
        return proc


def install(monkeypatch) -> None:
    """Make every ``DexCluster`` built from here on run on the reference:
    :class:`ReferenceEngine` at the single construction site, and a
    network that never parks a message for reuse."""
    monkeypatch.setattr("repro.core.cluster.Engine", ReferenceEngine)
    monkeypatch.setattr("repro.net.fabric.recycle_message", lambda msg: None)
