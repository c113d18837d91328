"""Differential determinism: the DexSpeed fast paths are optimisations,
not semantics.  Every Figure-2 app must produce a bit-identical run —
same simulated time, same fault statistics — with each fast path
disabled: the same-time FIFO fast lane, the inline-resume collapse, and
the message freelist.  Both coherence-directory backends are covered.

The workloads are scaled far below the bench presets: the goal is to
drive every protocol path through both engine configurations, not to
measure anything.
"""

import pytest

from repro.bench.runner import run_point
from repro.net import messages
from repro.sim import engine

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


@pytest.mark.parametrize("backend", ["origin", "sharded"])
@pytest.mark.parametrize("app", sorted(APP_OVERRIDES))
def test_fast_paths_are_behaviour_preserving(app, backend, monkeypatch):
    reference = run_digest(app, backend)

    # fast lane and inline resume off (the pre-refactor dispatch shape)
    monkeypatch.setattr(engine, "FASTLANE_DEFAULT", False)
    monkeypatch.setattr(engine, "INLINE_DEFAULT", False)
    assert run_digest(app, backend) == reference, \
        f"{app}/{backend}: engine fast paths changed behaviour"
    monkeypatch.setattr(engine, "FASTLANE_DEFAULT", True)
    monkeypatch.setattr(engine, "INLINE_DEFAULT", True)

    # message freelist off (every message freshly allocated)
    monkeypatch.setattr(messages, "FREELIST_DEFAULT", False)
    assert run_digest(app, backend) == reference, \
        f"{app}/{backend}: message freelist changed behaviour"


def test_lane_defaults_reach_engine(monkeypatch):
    """The differential above only means something if flipping the module
    defaults really selects the reference lanes."""
    eng = engine.Engine()
    assert eng._fastlane_on and eng._inline
    monkeypatch.setattr(engine, "FASTLANE_DEFAULT", False)
    monkeypatch.setattr(engine, "INLINE_DEFAULT", False)
    eng = engine.Engine()
    assert not eng._fastlane_on and not eng._inline


def test_freelist_knob_reaches_network(monkeypatch):
    """The Network snapshots the freelist default at construction."""
    from repro import DexCluster

    assert DexCluster(num_nodes=2).net._recycle is True
    monkeypatch.setattr(messages, "FREELIST_DEFAULT", False)
    assert DexCluster(num_nodes=2).net._recycle is False


def test_recycled_messages_get_fresh_ids():
    """Freelist reuse must never recycle a message identity: msg_id always
    comes from the global counter, so reply matching and the transport's
    dedup window keep working."""
    messages._freelist.clear()  # earlier runs may have filled it to cap
    msg = messages.obtain_message(messages.MsgType.PING, src=0, dst=1)
    first_id = msg.msg_id
    messages.recycle_message(msg)
    again = messages.obtain_message(messages.MsgType.PING, src=0, dst=1)
    assert again is msg  # actually reused ...
    assert again.msg_id > first_id  # ... under a fresh identity
    assert again.payload == {} and again.page_data is None
