"""Differential determinism: the DexSpeed fast paths are optimisations,
not semantics.  Every Figure-2 app must produce a bit-identical run —
same simulated time, same fault statistics — on the reference engine of
``tests/oracles/engine.py``, which has none of them: no same-time FIFO
fast lane, no inline resume, no synchronous timeout callbacks.  Both
coherence-directory backends are covered, and so are both carriers of a
message in flight: the reference engine under production's
``_Flight`` stages, and under the generator they were derived from
(``tests/oracles/wire.py``).

The workloads are scaled far below the bench presets: the goal is to
drive every protocol path through both engines, not to measure anything.
"""

import functools

import pytest

from oracles import engine as oracle
from oracles import wire as wire_oracle
from repro import DexCluster
from repro.bench.runner import run_point

#: tiny per-app workloads (the differential needs coverage, not load)
APP_OVERRIDES = {
    "GRP": {"text_size": 256 * 1024},
    "KMN": {"n_points": 10_000, "max_iters": 2},
    "BT": {"grid_cells": 32_768, "iters": 1},
    "EP": {"n_pairs": 60_000},
    "FT": {"rows": 64, "cols": 64, "iters": 1},
    "BLK": {"n_options": 20_000},
    "BFS": {"n_vertices": 2_048, "n_edges": 8_000},
    "BP": {"n_vertices": 8_192, "n_edges": 120_000, "iters": 1},
}


def run_digest(app, backend):
    """One n=4 run -> every stable behavioural observable we track."""
    result = run_point(app, "initial", 4, directory=backend,
                       **APP_OVERRIDES[app])
    stats = result.stats
    return {
        "elapsed_us": result.elapsed_us,
        "correct": bool(result.correct),
        "faults": stats.total_faults,
        "retries": stats.fault_retries,
        "coalesced": stats.faults_coalesced,
        "latency_sum_us": round(
            sum(r.latency_us for r in stats.fault_latencies), 6
        ),
        "migrations": len(stats.migrations),
    }


#: the production side of every comparison, run once per point
production_digest = functools.lru_cache(maxsize=None)(run_digest)


def every_point(test):
    return pytest.mark.parametrize("backend", ["origin", "sharded"])(
        pytest.mark.parametrize("app", sorted(APP_OVERRIDES))(test))


@every_point
def test_fast_paths_are_behaviour_preserving(app, backend, monkeypatch):
    """The reference engine under production's carrier, the flight."""
    production = production_digest(app, backend)
    oracle.install(monkeypatch)
    assert run_digest(app, backend) == production, \
        f"{app}/{backend}: the engine fast paths changed behaviour"


@every_point
def test_the_flight_is_behaviour_preserving(app, backend, monkeypatch):
    """The reference engine under the reference carrier: nothing of the
    production dispatch path is left in this run."""
    production = production_digest(app, backend)
    oracle.install(monkeypatch)
    wire_oracle.install(monkeypatch)
    assert run_digest(app, backend) == production, \
        f"{app}/{backend}: the flight's stages are not the generator's"


def _ping(cluster):
    def main(ctx):
        yield from ctx.migrate(1)
        yield from ctx.write_i64(0x1000_0000, 1)
        yield from ctx.migrate_back()

    cluster.simulate(main)
    return cluster.engine


def test_oracle_reaches_the_engine(monkeypatch):
    """The differential above only means something if installing the oracle
    really selects the reference lanes: a cluster built afterwards runs on
    the one heap, with non-inlining timeouts and processes."""
    fast = _ping(DexCluster(num_nodes=2))
    assert type(fast) is oracle.Engine
    oracle.install(monkeypatch)
    eng = DexCluster(num_nodes=2).engine
    assert isinstance(eng, oracle.ReferenceEngine)
    assert isinstance(eng.timeout(1.0), oracle.ReferenceTimeout)
    assert isinstance(eng.process(iter(())), oracle.ReferenceProcess)
    slow = _ping(DexCluster(num_nodes=2))
    assert slow.now == fast.now
    # every inline resume / synchronous timeout callback of the fast run is
    # a dispatched entry here
    assert slow.events_dispatched > fast.events_dispatched
