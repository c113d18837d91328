"""DexServe end-to-end: seeded determinism, bulkhead isolation, the
open-loop invariant, admission policies, fail-stop chaos attribution,
and the zero-cost-when-off guards."""

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.serve import ArrivalCurve, ServeManager, TenantSpec

SRC = Path(__file__).resolve().parent.parent / "src"


def kmn_spec(name="kmn-v", nodes=(0, 1), rate=8_000, requests=120, seed=3,
             **kw):
    return TenantSpec(
        name, "kmn", ArrivalCurve("constant", rate=rate, requests=requests),
        nodes=nodes, items=4_096, request_items=256, seed=seed, **kw)


def scan_burst_spec(name="scan-a", nodes=(2, 3), rate=20_000, requests=200,
                    seed=4, **kw):
    curve = ArrivalCurve("burst", rate=rate, requests=requests,
                         burst_at_us=3_000, burst_for_us=3_000, burst_x=8.0)
    return TenantSpec(name, "scan", curve, nodes=nodes, items=16_384,
                      request_items=2_048, seed=seed, **kw)


def run_report(specs, **kw):
    kw.setdefault("num_nodes", 4)
    kw.setdefault("seed", 42)
    return ServeManager(list(specs), **kw).run()


@pytest.mark.parametrize("bad, field", [
    (dict(workers_per_node=0), "workers_per_node must be at least 1"),
    (dict(queue_capacity=0), "queue_capacity must be at least 1"),
    (dict(items=-4), "items must be non-negative"),
    # a negative slice length never ended the run it was built for
    (dict(request_items=-1), "request_items must be non-negative"),
    (dict(slo_p99_us=-1.0), "slo_p99_us must be positive and finite"),
    (dict(slo_p99_us=float("inf")), "slo_p99_us must be positive"),
    (dict(policy_rate_per_s=-5.0), "policy_rate_per_s must be non-negative"),
    (dict(policy="wobble"), "unknown policy 'wobble'"),
    (dict(nodes=()), "needs at least one node"),
])
def test_a_tenant_spec_fails_at_construction(bad, field):
    with pytest.raises(ValueError, match=f"tenant 'kmn-v': {field}"):
        replace(kmn_spec(), **bad)


def test_seeded_report_bit_identical():
    specs = [kmn_spec(), scan_burst_spec()]
    a = run_report(specs)
    b = run_report(specs)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    for doc in a["tenants"].values():
        assert doc["counts"]["mismatched"] == 0
        assert doc["counts"]["completed"] > 0


def test_bulkhead_isolation_and_burst_degradation():
    solo = run_report([kmn_spec()])["tenants"]["kmn-v"]
    shared = run_report([kmn_spec(), scan_burst_spec()])
    victim = shared["tenants"]["kmn-v"]
    aggressor = shared["tenants"]["scan-a"]

    # the bursty tenant degrades inside its own burst window ...
    burst = aggressor["burst_window"]
    assert burst["p99_during"] > 2.0 * burst["p99_before"]
    # ... while the bulkheaded tenant on disjoint nodes stays within 20%
    # of its solo baseline
    assert victim["latency_us"]["p99"] <= 1.2 * solo["latency_us"]["p99"]
    assert victim["counts"]["completed"] == 120
    assert victim["counts"]["mismatched"] == 0


def test_open_loop_injection_continues_under_saturation():
    # one worker, tiny queue, arrivals 10x faster than service: a
    # closed-loop client would stall; the open-loop generator keeps
    # injecting and the policy keeps rejecting
    spec = kmn_spec(name="hot", nodes=(0,), rate=40_000, requests=150,
                    workers_per_node=1, queue_capacity=4)
    doc = run_report([spec], num_nodes=2)["tenants"]["hot"]
    counts = doc["counts"]
    assert counts["injected"] == 150
    assert counts["rejected"] > 0
    assert counts["admitted"] + counts["rejected"] == 150
    assert counts["completed"] == counts["admitted"]
    assert counts["completed"] + counts["rejected"] == 150  # all terminal
    assert doc["queue_depth_hwm"] <= 4


def test_shed_oldest_policy_sheds_instead_of_rejecting():
    spec = kmn_spec(name="shedder", nodes=(0,), rate=40_000, requests=150,
                    workers_per_node=1, queue_capacity=4,
                    policy="shed-oldest")
    counts = run_report([spec], num_nodes=2)["tenants"]["shedder"]["counts"]
    assert counts["shed"] > 0
    assert counts["rejected"] == 0
    assert counts["admitted"] == 150  # shed-oldest always admits the new
    assert counts["completed"] + counts["shed"] == 150


def test_token_bucket_policy_throttles():
    spec = kmn_spec(name="bucket", nodes=(0,), rate=40_000, requests=150,
                    workers_per_node=1, queue_capacity=64,
                    policy="token-bucket", policy_rate_per_s=8_000.0)
    counts = run_report([spec], num_nodes=2)["tenants"]["bucket"]["counts"]
    assert counts["throttled"] > 0
    assert counts["admitted"] + counts["throttled"] == 150
    assert counts["completed"] + counts["throttled"] == 150


def test_failstop_chaos_converges_and_attributes():
    from repro.chaos import ChaosScenario

    def run_once():
        chaos = ChaosScenario(rules=[], seed=9, on_exclusive_loss="rollback")
        return run_report(
            [kmn_spec(requests=160), scan_burst_spec(requests=240)],
            chaos=chaos, fail_stop=(3, 2_000.0),
        )

    report = run_once()
    # the run converged: every arrival reached a terminal state
    for doc in report["tenants"].values():
        c = doc["counts"]
        terminal = (c["completed"] + c["rejected"] + c["throttled"]
                    + c["shed"] + c["failed"])
        assert terminal == c["injected"] == doc["requests"]
        assert c["mismatched"] == 0
    chaos_doc = report["chaos"]
    assert chaos_doc["crashed_nodes"] == [3]
    assert chaos_doc["impacted_tenants"] == ["scan-a"]
    assert chaos_doc["first_crash_us"] is not None
    att = chaos_doc["attribution"]
    assert att["scan-a"]["impacted"] is True
    assert att["kmn-v"]["impacted"] is False
    # the failure is attributed: the impacted tenant's post-crash p99
    # degrades past the bulkheaded tenant's, which stays flat
    assert att["kmn-v"]["p99_after_crash"] == pytest.approx(
        att["kmn-v"]["p99_before_crash"], rel=0.2)
    # losing half the serving nodes mid-run must show up in the tail
    assert (att["scan-a"]["p99_after_crash"]
            > 1.5 * att["scan-a"]["p99_before_crash"])

    # chaos runs are as deterministic as clean ones
    again = run_once()
    assert json.dumps(report, sort_keys=True) == json.dumps(
        again, sort_keys=True)


def test_scope_sampling_does_not_change_results():
    specs = [kmn_spec(), scan_burst_spec()]
    plain = run_report(specs)
    scoped = run_report(specs, scope=True)
    assert json.dumps(plain, sort_keys=True) == json.dumps(
        scoped, sort_keys=True)


def test_zero_cost_when_off_runtime():
    # importing and running the core simulator never pulls in the
    # serving layer
    code = (
        "import sys\n"
        "from repro.core.cluster import DexCluster\n"
        "from repro.params import SimParams\n"
        "c = DexCluster(num_nodes=2, params=SimParams().copy(seed=1))\n"
        "def main(ctx):\n"
        "    yield from ctx.compute(cpu_us=1.0)\n"
        "c.simulate(main)\n"
        "assert 'repro.serve' not in sys.modules, 'serve leaked into core'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_zero_cost_when_off_structural():
    # no core/sim/net/chaos/obs module imports the serving layer
    core_dirs = ("core", "sim", "net", "chaos", "obs", "apps", "runtime")
    offenders = []
    for d in core_dirs:
        for path in (SRC / "repro" / d).rglob("*.py"):
            text = path.read_text()
            if "repro.serve" in text or "from repro import serve" in text:
                offenders.append(str(path))
    assert offenders == []


def test_cli_smoke_and_report_roundtrip(tmp_path, capsys):
    from repro.serve.__main__ import main

    out = tmp_path / "report.json"
    rc = main([
        "--tenants", "kmn:constant,scan:burst", "--nodes", "4",
        "--requests", "60", "--rate", "8000", "--items", "4096",
        "--request-items", "512", "--burst-at-us", "2000",
        "--burst-for-us", "2000", "--seed", "11", "--out", str(out),
    ])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "DexServe SLO report" in printed
    assert "p99us" in printed
    saved = json.loads(out.read_text())
    assert saved["schema"] == "dex-serve-report/v1"
    rc = main(["report", str(out)])
    assert rc == 0
    assert "DexServe SLO report" in capsys.readouterr().out
