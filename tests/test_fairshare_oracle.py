"""Differential test: the one-pass :class:`FairShareResource` against the
two-pass reference of ``tests/oracles/fairshare.py``.  The fused pass
keeps every float operation of the old one (``cap / n * dt`` per job, the
``_EPS`` rule, the sub-resolution settle loop), so the two must agree bit
for bit — completion times and order, ``total_served``, every timer armed
— on random schedules and on every app."""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import fairshare as oracle
from oracles.fairshare import ReferenceFairShare
from repro import DexCluster, SimParams
from repro.apps.common import APP_NAMES
from repro.bench.runner import run_point
from repro.sim import Engine, FairShareResource
from test_apps import TINY


class TimerLog(Engine):
    """An engine that keeps every completion timer a resource arms."""

    def __init__(self):
        super().__init__(seed=1)
        self.timers = []

    def _schedule_at(self, when, fn, *args):
        if getattr(fn, "__name__", "") == "_on_timer":
            self.timers.append((when, *args))
        return super()._schedule_at(when, fn, *args)


def replay(kind, schedule, contention, base):
    """Run *schedule* — ``(arrival offset, amount)`` per job — on one
    resource of class *kind*; everything observable about the run."""
    engine = TimerLog()
    model = SimParams().dram_contention_model() if contention else None
    share = kind(engine, 7000.0, contention=model, name="link")
    done = []

    def job(idx, offset, amount):
        yield base + offset
        yield share.consume(amount)
        done.append((idx, engine.now))

    for idx, (offset, amount) in enumerate(schedule):
        engine.process(job(idx, offset, amount))
    engine.run()
    return (done, share.total_served, engine.timers, engine.now,
            engine.events_dispatched, engine._seq)


#: arrivals on a coarse grid collide with each other and with completions;
#: amounts reach 0, _EPS and below, and the 1e9 us base pushes the clock to
#: where a small remainder is below float resolution: the settle loop, which
#: finishes together, in list order, every job within _EPS of the smallest
#: (two jobs 5e-10 apart, the larger first)
offsets = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.5, 3.0]) | st.floats(0.0, 50.0)
amounts = (st.sampled_from([0.0, 1e-12, 5e-10, 1e-9, 2e-9, 1e-7, 4096.0,
                            2688.2000000005, 2688.2])
           | st.floats(0.0, 20_000.0))


@settings(max_examples=300, deadline=None)
@example(schedule=[(0.0, 2688.2000000005), (0.0, 2688.2)], contention=False,
         base=1e9)
@given(schedule=st.lists(st.tuples(offsets, amounts), min_size=1, max_size=40),
       contention=st.booleans(), base=st.sampled_from([0.0, 1e9]))
def test_one_pass_matches_the_two_pass_reference(schedule, contention, base):
    ours = replay(FairShareResource, schedule, contention, base)
    assert ours == replay(ReferenceFairShare, schedule, contention, base)
    assert len(ours[0]) == len(schedule)


def canonical(value):
    """A value every element of which compares bitwise."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (tuple, list)):
        return tuple(canonical(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, canonical(v)) for k, v in value.items()))
    if isinstance(value, float):
        return value.hex()
    return value


def app_digest(app, variant):
    cluster = DexCluster(num_nodes=4)
    result = run_point(app, variant, 4, cluster=cluster, **TINY[app])
    shares = [node.dram for node in cluster.nodes] + [
        nic.tx for nic in cluster.net.nics]
    digest = (result.elapsed_us.hex(), canonical(result.output),
              result.correct, cluster.engine.events_dispatched,
              cluster.engine._seq, [s.total_served.hex() for s in shares])
    cluster.close()
    return digest


production_digest = functools.lru_cache(maxsize=None)(app_digest)


@pytest.mark.parametrize("variant", ["initial", "optimized"])
@pytest.mark.parametrize("app", APP_NAMES)
def test_apps_run_identically_on_the_reference(app, variant, monkeypatch):
    production = production_digest(app, variant)
    oracle.install(monkeypatch)
    assert app_digest(app, variant) == production
