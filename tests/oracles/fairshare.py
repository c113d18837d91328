"""The reference fair-share resource: the two-pass GPS recomputation
production :class:`~repro.sim.resources.FairShareResource` fused into one.
An arrival or completion first charges every job in ``_advance``, then
``_reschedule`` rescans them to finish the done ones and find the next
completion.  ``tests/test_fairshare_oracle.py`` requires the two to agree
bit for bit: completion times and order, ``total_served`` and every timer.
"""

from __future__ import annotations

from typing import Any

from repro.sim.engine import Event
from repro.sim.resources import _EPS, FairShareResource, _ShareJob


class ReferenceFairShare(FairShareResource):
    """Charge, then rescan: ``_advance`` and ``_reschedule`` as they were."""

    def consume(self, amount: float, tag: Any = None) -> Event:
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


def install(monkeypatch) -> None:
    """Make every ``DexCluster`` built from here on share its NIC links and
    DRAM channels through :class:`ReferenceFairShare`: both construction
    sites."""
    monkeypatch.setattr("repro.core.cluster.FairShareResource",
                        ReferenceFairShare)
    monkeypatch.setattr("repro.net.fabric.FairShareResource",
                        ReferenceFairShare)
