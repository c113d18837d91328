"""Fail-stop recovery: lease-expiry detection, directory reclamation under
both exclusive-loss policies, dead-thread semantics ("fail loud, never
hang"), and the harness restart policy on a real application."""

import pytest

from repro.chaos import run_pagefault_micro, run_under_chaos
from repro.chaos.scenario import ChaosRule, ChaosScenario
from repro.core import DexCluster
from repro.core.errors import NodeFailedError
from repro.params import SimParams
from repro.runtime import MemoryAllocator


def _crash_scenario(node=1, at_us=None, policy="fail", **match):
    rule = ChaosRule(kind="crash", node=node, at_us=at_us, **match)
    return ChaosScenario(rules=[rule], seed=5,
                         on_exclusive_loss=policy).validate()


def test_crash_mid_run_fails_loud_within_lease_timeout():
    """A predicate crash mid-micro kills the remote thread; the joiner gets
    NodeFailedError (not a hang), and the origin detects the silence within
    one lease timeout plus a check period."""
    scenario = _crash_scenario(node=1, msg_type="delegate", nth=2)
    # the caller that wants the controller afterwards owns the cluster
    cluster = DexCluster(num_nodes=2, params=SimParams(
        chaos_scenario=scenario, sanitize="1"))
    with pytest.raises(NodeFailedError) as exc_info:
        run_pagefault_micro(cluster=cluster)
    assert "node 1" in str(exc_info.value)
    controller = cluster.chaos
    report = controller.report()
    assert report["crashed"] == [1] and report["failed"] == [1]
    assert report["lease_expiries"] >= 1
    crash_t = next(t for t, w in controller.events if "fail-stop" in w)
    detect_t = next(t for t, w in controller.events if "declared failed" in w)
    params = SimParams()
    budget = params.lease_timeout_us + 2 * params.lease_check_us
    assert detect_t - crash_t <= budget, controller.events


def _exclusive_loss_cluster(policy):
    """Remote thread writes v1, the origin reads it (downgrade-flush to the
    home), the remote writes v2 and is then crashed while holding the page
    exclusively — v2 is the version fail-stop loses."""
    scenario = _crash_scenario(node=1, at_us=6000.0, policy=policy)
    params = SimParams(chaos_scenario=scenario, sanitize="1", seed=5)
    cluster = DexCluster(num_nodes=2, params=params)
    proc = cluster.create_process()
    alloc = MemoryAllocator(proc)
    var = alloc.alloc_global(8, tag="xloss")

    def remote(ctx):
        yield from ctx.migrate(1)
        yield from ctx.write_i64(var, 41, site="xloss:v1")
        yield from ctx.compute(cpu_us=1500)
        yield from ctx.write_i64(var, 42, site="xloss:v2")
        yield from ctx.compute(cpu_us=50_000)
        yield from ctx.migrate_back()

    thread = proc.spawn_thread(remote, name="remote")

    def main(ctx):
        yield from ctx.compute(cpu_us=1200)
        first = yield from ctx.read_i64(var)  # forces the downgrade flush
        yield from ctx.compute(cpu_us=8000)   # crash + detection land here
        second = yield from ctx.read_i64(var)
        return first, second

    return cluster, proc, scenario, main, thread


def test_exclusive_loss_rollback_restores_flushed_copy():
    cluster, proc, scenario, main, thread = _exclusive_loss_cluster("rollback")
    first, second = cluster.simulate(main, proc)
    assert first == 41
    # the lost exclusive version (42) rolled back to the flushed copy
    assert second == 41
    assert proc.failed is None
    assert thread.failed is not None  # the thread itself is dead, loudly
    report = cluster.chaos.report()
    assert report["failed"] == [1]
    assert any("rolled back" in e or "recovered" in e
               for e in report["events"]), report["events"]


def test_exclusive_loss_fail_policy_fails_with_diagnostic():
    cluster, proc, scenario, main, _ = _exclusive_loss_cluster("fail")
    cluster.simulate(main, proc)
    assert proc.failed is not None
    diag = str(proc.failed)
    assert "exclusive at node 1" in diag
    assert "on_exclusive_loss=fail" in diag
    assert "version" in diag

    # every subsequent memory operation that reaches the fault path
    # refuses with the same diagnostic instead of computing on rolled-back
    # data
    alloc = MemoryAllocator(proc)
    fresh = alloc.alloc_global(8, tag="post-fail")

    def touch(ctx):
        yield from ctx.write_i64(fresh, 1, site="post-fail")

    with pytest.raises(NodeFailedError) as exc_info:
        cluster.simulate(touch, proc)
    assert "on_exclusive_loss=fail" in str(exc_info.value)


def test_shared_copy_reclaimed_transparently():
    """A dead node that only held *shared* copies costs nothing: the data
    survives at the home, the process does not fail, and a post-crash read
    at the origin sees the right value."""
    scenario = _crash_scenario(node=1, at_us=4000.0, policy="fail")
    params = SimParams(chaos_scenario=scenario, sanitize="1", seed=5)
    cluster = DexCluster(num_nodes=2, params=params)
    proc = cluster.create_process()
    alloc = MemoryAllocator(proc)
    var = alloc.alloc_global(8, tag="shared")

    def remote(ctx):
        yield from ctx.migrate(1)
        value = yield from ctx.read_i64(var)  # shared replica only
        yield from ctx.compute(cpu_us=50_000)
        yield from ctx.migrate_back()
        return value

    proc.spawn_thread(remote, name="reader")

    def main(ctx):
        yield from ctx.write_i64(var, 7, site="shared:init")
        yield from ctx.compute(cpu_us=10_000)
        return (yield from ctx.read_i64(var))

    assert cluster.simulate(main, proc) == 7
    assert proc.failed is None
    report = cluster.chaos.report()
    assert report["failed"] == [1]
    assert any("shared cop" in e for e in report["events"]), report["events"]


def test_futex_poisoned_after_thread_death():
    """Once a migrated thread dies, any further futex wait raises instead
    of sleeping for a wake that cannot come."""
    cluster, proc, scenario, main, _ = _exclusive_loss_cluster("rollback")
    cluster.simulate(main, proc)
    assert proc.futex.poisoned is not None
    with pytest.raises(NodeFailedError):
        raise proc.futex.poisoned


def test_kmeans_survives_mid_run_fail_stop_via_restart():
    """The acceptance scenario: a node fail-stops mid-kmeans on 4 nodes
    (on its own 10th keepalive, so it is provably hosting workers when it
    dies); attempt 1 dies loudly via lease expiry, the consumed crash rule
    does not re-fire, and the restarted run completes with correct output,
    sanitizer on."""
    scenario = ChaosScenario(
        rules=[ChaosRule(kind="crash", node=2, msg_type="lease_renew",
                         src=2, nth=10)],
        seed=4, on_exclusive_loss="rollback",
    ).validate()
    outcome = run_under_chaos(
        "KMN", "initial", num_nodes=4, scale="small",
        scenario=scenario, max_restarts=1,
        n_points=20_000, max_iters=2,
    )
    assert outcome.completed and outcome.correct
    assert len(outcome.attempts) == 2
    assert "lease expired" in outcome.attempts[0]
    assert "attempt 2: completed" in outcome.attempts[1]
    assert scenario.rules[0].fired == 1
