"""The subsystem's standing bargain: with chaos off, nothing changes.
No controller is built, the single-shot request path runs, and sim time is
bit-identical run to run; cancellable timeouts never advance the clock."""

import pytest

from repro.chaos import run_pagefault_micro
from repro.core import DexCluster
from repro.sim import Engine


@pytest.fixture(autouse=True)
def chaos_env_unset(monkeypatch):
    monkeypatch.delenv("DEX_CHAOS", raising=False)


def test_cluster_has_no_controller_by_default():
    cluster = DexCluster(num_nodes=2)
    assert cluster.chaos is None
    assert cluster.net.chaos is None


def test_chaos_off_sim_time_is_bit_identical():
    a = run_pagefault_micro(None)
    b = run_pagefault_micro(None)
    assert a["ok"] and b["ok"]
    assert a["report"] is None and b["report"] is None
    assert a["elapsed_us"] == b["elapsed_us"]


def test_chaos_off_matches_with_pinned_seed():
    """The engine seed changes workload RNG draws, never event timing of a
    deterministic run: two different seeds agree on the micro's sim time
    (nothing in the micro draws randomness)."""
    a = run_pagefault_micro(None, seed=1)
    b = run_pagefault_micro(None, seed=2)
    assert a["elapsed_us"] == b["elapsed_us"]


def test_cancelled_timeout_does_not_advance_clock():
    """An abandoned deadline must not distort final sim time when run()
    drains the queue — the transport cancels retry deadlines that lost
    their race."""
    engine = Engine()
    keep = engine.timeout(50.0)
    abandoned = engine.timeout(10_000.0)
    abandoned.cancel()
    engine.run()
    assert keep.triggered
    assert engine.now == 50.0
    assert engine._cancelled_entries == 0


def test_cancel_after_trigger_is_a_no_op():
    engine = Engine()
    timeout = engine.timeout(5.0)
    engine.run()
    assert engine.now == 5.0
    timeout.cancel()  # already fired: nothing to skip
    assert engine._cancelled_entries == 0


def test_double_cancel_counts_once():
    engine = Engine()
    timeout = engine.timeout(100.0)
    timeout.cancel()
    timeout.cancel()
    assert engine._cancelled_entries == 1
    engine.run()
    assert engine.now == 0.0
    assert engine._cancelled_entries == 0
