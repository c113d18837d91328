"""DexScope acceptance: sampling never perturbs a run (bit-identical on
both directory backends), the sampler grid fires once per idle gap, the
series rings decimate instead of truncating, manifests are deterministic
and round-trip through JSON, and a seeded regression is caught AND
attributed to the correct critical-path phase and directory shard."""

import json

import pytest

from repro import DexCluster
from repro.bench.runner import run_point
from repro.obs.diff import diff_manifests
from repro.obs.manifest import (
    MANIFEST_FORMAT,
    build_manifest,
    load_manifest,
    write_manifest,
)
from repro.obs.ring import SeriesRing
from repro.obs.scope import CLUSTER_PID
from repro.params import SimParams
from repro.sim.engine import Engine, SimulationError

#: tiny KMN workload — the tests need protocol coverage, not load
KMN_SMALL = {"n_points": 10_000, "max_iters": 2}


def _run_on_own_cluster(variant, params):
    """KMN@4 on a cluster built here, so its instruments can be read."""
    cluster = DexCluster(num_nodes=8, params=params)
    result = run_point("KMN", variant, 4, params=params, cluster=cluster,
                       **KMN_SMALL)
    return result, cluster


def _digest(backend, scope):
    """One KMN@4 run -> (every stable behavioural observable we track,
    the run's DexScope or None)."""
    result, cluster = _run_on_own_cluster(
        "initial", SimParams(directory=backend, scope=scope))
    stats = result.stats
    return cluster.scope, {
        "elapsed_us": result.elapsed_us,
        "correct": bool(result.correct),
        "faults": stats.total_faults,
        "retries": stats.fault_retries,
        "latency_sum_us": round(
            sum(r.latency_us for r in stats.fault_latencies), 6
        ),
    }


@pytest.mark.parametrize("backend", ["origin", "sharded"])
def test_sampling_is_behaviour_preserving(backend):
    """The ISSUE acceptance bar: a DEX_SCOPE=1 run is bit-identical to an
    unsampled one — the sampler reads state between dispatches, schedules
    nothing, and draws no randomness."""
    no_scope, reference = _digest(backend, scope="")
    assert no_scope is None  # off: no scope object at all
    scope, sampled = _digest(backend, scope="1")
    assert scope.samples > 0 and scope.series  # it really sampled
    assert sampled == reference, f"{backend}: sampling perturbed the run"


# -- the engine sampling grid -------------------------------------------------


def test_sampler_grid_fires_once_per_idle_gap():
    """A long quiet stretch produces ONE firing at the pending deadline,
    then the grid jumps past the current instant — no catch-up storm."""
    engine = Engine(seed=1)
    fired = []
    engine.add_sampler(fired.append, 10.0)

    def proc():
        yield engine.timeout(5.0)
        yield engine.timeout(100.0)  # idle gap spanning 10 grid periods
        yield engine.timeout(5.0)

    engine.process(proc())
    engine.run()
    assert fired == [10.0, 110.0]
    assert engine._next_sample == 120.0


def test_sampler_registration_validation():
    engine = Engine(seed=1)
    with pytest.raises(SimulationError, match="positive"):
        engine.add_sampler(lambda t: None, 0.0)
    engine.add_sampler(lambda t: None, 10.0)
    with pytest.raises(SimulationError, match="one grid interval"):
        engine.add_sampler(lambda t: None, 20.0)


def test_samplers_do_not_count_as_hooks():
    """The zero-cost-off story for the rest of the engine: samplers live
    on their own list, so every probe list stays empty."""
    engine = Engine(seed=1)
    engine.add_sampler(lambda t: None, 10.0)
    assert engine.hooks.observers == [] and not any(engine.hooks.values())
    assert len(engine._on_sample) == 1


# -- SeriesRing ---------------------------------------------------------------


def test_series_ring_decimates_and_covers_whole_run():
    ring = SeriesRing(capacity=8, agg="mean")
    for i in range(64):
        ring.push(float(i), float(i))
    pts = ring.points()
    assert len(pts) <= 8  # bounded
    assert ring.stride > 1  # decimated, not truncated
    assert pts[0][0] == 0.0  # coverage still starts at the first sample
    assert pts[-1][0] >= 32.0  # ...and still reaches the recent end
    # mean aggregation preserves the level of a linear ramp per window
    for t, v in pts:
        assert abs(v - (t + (ring.stride - 1) / 2.0)) < ring.stride


@pytest.mark.parametrize("agg,expected", [
    ("mean", [1.0, 5.0]),
    ("max", [2.0, 6.0]),
    ("sum", [2.0, 10.0]),
    ("last", [2.0, 6.0]),
])
def test_series_ring_pairwise_combine(agg, expected):
    ring = SeriesRing(capacity=4, agg=agg)
    for t, v in enumerate([0.0, 2.0, 4.0, 6.0]):
        ring.push(float(t), v)
    assert ring.stride == 2  # hit capacity once -> one decimation
    assert [v for _, v in ring.points()] == expected
    assert [t for t, _ in ring.points()] == [0.0, 2.0]


def test_series_ring_partial_accumulator_is_visible():
    ring = SeriesRing(capacity=4, agg="mean")
    for t, v in enumerate([0.0, 2.0, 4.0, 6.0]):
        ring.push(float(t), v)
    ring.push(4.0, 100.0)  # stride is now 2: this point is half-window
    assert ring.points()[-1] == (4.0, 100.0)  # never lags the last firing


def test_series_ring_to_dict_rounds():
    ring = SeriesRing(capacity=4, agg="mean")
    ring.push(0.12345678, 1.0 / 3.0)
    doc = ring.to_dict()
    assert doc["agg"] == "mean" and doc["stride"] == 1
    assert doc["t"] == [0.123]
    assert doc["v"] == [round(1.0 / 3.0, 6)]


def test_series_ring_validation():
    with pytest.raises(ValueError, match=">= 4"):
        SeriesRing(capacity=2)
    with pytest.raises(ValueError, match="aggregation"):
        SeriesRing(agg="median")


# -- sampled runs: counter tracks, manifests, differential attribution --------


def _sampled_run(variant):
    """One fully-instrumented KMN@4 run: trace + lens + scope."""
    result, cluster = _run_on_own_cluster(
        variant, SimParams(trace="1", lens="1", scope="1"))
    return result, cluster.scope, cluster.lens


def _manifest_for(variant):
    result, scope, lens = _sampled_run(variant)
    return build_manifest(result, scope.cluster, scope=scope, lens=lens)


@pytest.fixture(scope="module")
def opt_run():
    return _sampled_run("optimized")


@pytest.fixture(scope="module")
def opt_manifest(opt_run):
    result, scope, lens = opt_run
    return build_manifest(result, scope.cluster, scope=scope, lens=lens)


def test_scope_gauges_and_series_cover_the_rack(opt_run):
    _, scope, _ = opt_run
    keys = set(scope.series)
    assert any(k.startswith("node0.busy_frac") for k in keys)
    assert any(k.startswith("node") and k.endswith(".runq") for k in keys)
    assert any(k.startswith("nic") for k in keys)
    assert any(k.startswith("dir.home") for k in keys)
    assert "engine.queue_len" in keys and "faults.per_ms" in keys
    assert any(k.startswith("stats.") for k in keys)
    assert scope.series_dropped == 0
    # the registry families carry the latest values for live readers
    assert scope.registry.get("node_busy_frac").per_label()
    assert scope.registry.get("directory_request_rate").per_label()


def test_a_full_series_table_drops_samples_and_leaves_the_run_alone():
    """The exhaustion edge of the series cap: with room for a handful of
    series the run still completes, the refused samples are counted — by
    the scope and in its manifest alike — and the sim clock is the one an
    uncapped run reads."""
    capped, capped_cluster = _run_on_own_cluster(
        "initial", SimParams(scope="1", scope_max_series=8))
    uncapped, cluster = _run_on_own_cluster("initial", SimParams(scope="1"))
    scope = capped_cluster.scope
    assert capped.correct and len(scope.series) == 8
    assert scope.series_dropped > 0 and cluster.scope.series_dropped == 0
    manifest = build_manifest(capped, capped_cluster, scope=scope)
    assert manifest["scope"]["series_dropped"] == scope.series_dropped
    assert (capped.elapsed_us, capped_cluster.engine.now,
            capped_cluster.engine.events_dispatched) == (
        uncapped.elapsed_us, cluster.engine.now,
        cluster.engine.events_dispatched)


def test_counter_events_structure(opt_run):
    _, scope, _ = opt_run
    events = scope.counter_events()
    meta = [e for e in events if e["ph"] == "M"]
    counters = [e for e in events if e["ph"] == "C"]
    assert len(meta) == 1 and meta[0]["pid"] == CLUSTER_PID
    assert meta[0]["args"]["name"] == "cluster (DexScope)"
    assert counters
    for event in counters:
        assert set(event) == {"name", "ph", "pid", "ts", "args"}
        assert isinstance(event["args"]["value"], float)
    # per-node series ride on that node's existing process track; the
    # cluster-wide ones on the synthetic DexScope track
    node_pids = {e["pid"] for e in counters if e["name"].startswith("node")}
    assert node_pids
    assert node_pids <= set(range(len(scope.cluster.nodes)))
    assert {e["pid"] for e in counters if e["name"].startswith("engine.")} \
        == {CLUSTER_PID}


def test_manifest_round_trips_and_is_json_pure(opt_manifest, tmp_path):
    path = tmp_path / "dex-run.json"
    write_manifest(str(path), opt_manifest)
    loaded = load_manifest(str(path))
    assert loaded == json.loads(json.dumps(opt_manifest))
    assert loaded["format"] == MANIFEST_FORMAT
    assert loaded["app"] == "KMN" and loaded["variant"] == "optimized"
    assert loaded["counters"]["net_messages_sent"] > 0
    assert loaded["result"]["sim_time_us"] > 0
    assert loaded["scope"]["samples"] > 0 and loaded["series"]
    assert loaded["phases"]  # lens critical-path section present
    for section in loaded["phases"].values():
        assert {"sum", "count", "p50", "p99"} <= set(section)
    overall = loaded["quantiles"]["fault_latency_us"]["overall"]
    assert overall["count"] > 0 and overall["p99"] >= overall["p50"]


def test_manifest_rejects_foreign_files(tmp_path):
    path = tmp_path / "other.json"
    path.write_text('{"format": "dextrace-spans-v1"}\n')
    with pytest.raises(ValueError, match="not a run manifest"):
        load_manifest(str(path))


def test_manifests_are_deterministic(opt_manifest):
    """No wall clocks, no host state: the same build produces an
    identical document — the property the CI baseline diff relies on."""
    assert _manifest_for("optimized") == opt_manifest


def test_seeded_regression_is_caught_and_attributed(opt_manifest):
    """THE acceptance scenario: the un-tuned `initial` variant is the
    seeded regression against the `optimized` baseline.  The diff must
    flag it AND name where the time went — for KMN the initial variant
    ping-pongs ownership, so threads stall on contended faults and the
    blocked phase dominates the critical-path growth."""
    candidate = _manifest_for("initial")
    report = diff_manifests(opt_manifest, candidate, threshold=0.10)
    assert report.regressed
    assert report.regressions[0].name in ("sim_time_us", "fault_p99_us")
    assert report.dominant_phase == "blocked"
    assert report.dominant_share > 0.5  # it is dominant, not just largest
    assert report.dominant_delta_us > 0
    assert report.hottest_shard is not None
    line = report.attribution()
    assert line.startswith("regression:")
    assert "dominated by blocked" in line
    assert "hottest shard" in line
    # the ranked deltas include the phase that grew
    assert any(
        m.name == "phase_blocked_us" and m.delta > 0 for m in report.deltas
    )


def test_identical_manifests_diff_clean(opt_manifest):
    report = diff_manifests(opt_manifest, opt_manifest)
    assert not report.regressed
    assert report.attribution().startswith("ok:")
