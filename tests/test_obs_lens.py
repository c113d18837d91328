"""DexLens: the online trace-analytics layer.

Covers the zero-cost-when-off contract (no lens object, empty sink
lists, bit-identical sim time), the SlidingWindow decay/cap semantics,
the LensFeed heat statistics validated against the offline profiler's
ground truth (KMN-initial@8), critical-path attribution, the live top
view, the crash flight recorder (deadlock and fail-stop dumps), and the
chaos-retry trace-continuity fix.
"""

import io
import json

import pytest

from repro import DexCluster, SimParams
from repro.check import DeadlockError
from repro.core.errors import NodeFailedError
from repro.obs.export import PathPhase, check_trace_tree, path_phase_of
from repro.obs.lens import LensFeed, SlidingWindow, TopView
from repro.obs.ring import FlightRecorder, load_snapshot
from repro.runtime import MemoryAllocator, Mutex

from conftest import make_cluster


def _micro(num_nodes=2, rounds=30, on_cluster=None, **param_overrides):
    """The contended ping-pong micro with the lens on by default.  A gate
    releases both hammers together (after t2's migration lands) so the
    counter page really bounces: remote revocations in both directions,
    retried faults, the works.  *on_cluster* sees the cluster before
    anything runs (to add sinks)."""
    param_overrides.setdefault("lens", "1")
    param_overrides.setdefault("sanitize", "")
    cluster = make_cluster(num_nodes=num_nodes, **param_overrides)
    if on_cluster is not None:
        on_cluster(cluster)
    proc = cluster.create_process()
    alloc = MemoryAllocator(proc)
    var = alloc.alloc_global(8, tag="hot")

    gate = cluster.engine.event()

    def hammer(ctx, dest):
        if dest is not None:
            yield from ctx.migrate(dest)
        yield gate
        for _ in range(rounds):
            yield from ctx.atomic_add_i64(var, 1, site="h")
            # longer than a fault round trip, so the peer steals the page
            # back mid-loop and ownership really ping-pongs
            yield from ctx.compute(cpu_us=20.0)

    threads = [proc.spawn_thread(hammer, None), proc.spawn_thread(hammer, 1)]
    if num_nodes >= 3:
        # a third contender makes simultaneous faults (and thus busy-retry
        # "contended" trees) a certainty rather than a lucky interleaving
        threads.append(proc.spawn_thread(hammer, 2))

    def main(ctx):
        yield ctx.engine.timeout(5_000.0)
        gate.succeed()
        yield from proc.join_all(threads)

    cluster.simulate(main, proc)
    return cluster, proc, var


# -- knob (spellings: see test_switches.py) ---------------------------------


def test_lens_off_means_no_lens_object(monkeypatch):
    monkeypatch.delenv("DEX_LENS", raising=False)
    monkeypatch.delenv("DEX_TRACE", raising=False)
    cluster = DexCluster(num_nodes=2, params=SimParams(lens=""))
    assert cluster.lens is None and cluster.tracer is None
    # trace on, lens off: the tracer exists but nobody listens for closes
    cluster = DexCluster(num_nodes=2, params=SimParams(trace="1", lens=""))
    assert cluster.lens is None
    assert cluster.engine.hooks["span_close"] == []
    assert cluster.engine.hooks["message"] == []


def test_lens_on_implies_tracer():
    cluster = DexCluster(num_nodes=2, params=SimParams(lens="1"))
    assert cluster.tracer is not None
    assert cluster.lens is not None
    # the feed and the flight recorder are observers of the engine
    assert cluster.lens.sink in cluster.engine.hooks.observers
    assert cluster.lens.recorder in cluster.engine.hooks.observers


def test_lens_env_knob(monkeypatch):
    monkeypatch.setenv("DEX_LENS", "1")
    assert DexCluster(num_nodes=2).lens is not None
    monkeypatch.setenv("DEX_LENS", "0")
    assert DexCluster(num_nodes=2).lens is None


def test_lens_does_not_perturb_sim_time():
    plain_cluster, plain_proc, _ = _micro(lens="", trace="1")
    lens_cluster, lens_proc, _ = _micro(lens="1")
    assert lens_cluster.engine.now == plain_cluster.engine.now
    assert lens_proc.stats.total_faults == plain_proc.stats.total_faults
    assert lens_proc.stats.fault_retries == plain_proc.stats.fault_retries


# -- SlidingWindow ----------------------------------------------------------


def test_window_counts_and_expiry():
    w = SlidingWindow(window_us=100.0, slices=4, max_keys=64)
    w.add(10.0, "a")
    w.add(20.0, "a")
    w.add(20.0, "b")
    assert w.get(20.0, "a") == 2.0
    assert w.total(20.0) == 3.0
    # 130us later the first slices have expired
    assert w.get(150.0, "a") == 0.0
    assert w.total(150.0) == 0.0


def test_window_decays_slice_at_a_time():
    w = SlidingWindow(window_us=100.0, slices=4, max_keys=64)
    for t in (10.0, 35.0, 60.0, 85.0):  # one hit per slice
        w.add(t, "k")
    assert w.get(85.0, "k") == 4.0
    # advancing one slice past the window drops exactly the oldest slice
    assert w.get(110.0, "k") == 3.0
    assert w.get(135.0, "k") == 2.0
    assert w.get(999.0, "k") == 0.0


def test_window_cap_evicts_coldest_and_counts():
    w = SlidingWindow(window_us=1000.0, slices=2, max_keys=8)
    w.add(1.0, "hot", amount=50.0)
    for i in range(16):
        w.add(2.0, f"cold{i}")
    assert w.evicted > 0
    assert w.get(2.0, "hot") == 50.0  # the hot key survives
    assert len(w) <= 8 + 1


def test_window_top_ordering():
    w = SlidingWindow(window_us=1000.0, slices=2, max_keys=64)
    w.add(1.0, "x", 3.0)
    w.add(1.0, "y", 9.0)
    w.add(1.0, "z", 1.0)
    assert [k for k, _ in w.top(1.0, 2)] == ["y", "x"]


def test_window_rejects_bad_shape():
    with pytest.raises(ValueError):
        SlidingWindow(window_us=0.0)
    with pytest.raises(ValueError):
        SlidingWindow(window_us=10.0, slices=0)


# -- heat stats vs the offline profiler's ground truth ----------------------


def _kmn_with_lens(num_nodes=8):
    """KMN-initial with both the offline FaultTracer and the lens on, the
    lens window far larger than the run so nothing decays out."""
    from repro.bench.runner import run_point
    from repro.tools import FaultTracer, TraceAnalysis

    fault_tracer = FaultTracer()
    params = SimParams(trace="1", lens="1")
    cluster = DexCluster(num_nodes=8, params=params)
    # a feed that keeps everything: window and key cap beyond the run
    feed = cluster.lens.sink.feed = LensFeed(
        cluster.engine, window_us=1e9, max_keys=1 << 17)
    result = run_point(
        "KMN", "initial", num_nodes, "small",
        params=params, tracer=fault_tracer, cluster=cluster,
    )
    assert result.correct
    return TraceAnalysis(fault_tracer), feed


def test_feed_matches_profiler_ground_truth_on_kmn():
    """The acceptance check: windowed per-page fault counts and
    (requester -> victim) invalidation pairs agree exactly with
    TraceAnalysis over the same run (window >= run length)."""
    analysis, feed = _kmn_with_lens(num_nodes=8)
    ground_truth = analysis.hottest_pages(10)
    assert ground_truth and ground_truth[0].faults > 0
    assert feed.evicted == {"faults": 0, "churn": 0, "pairs": 0}
    heat = {page.vpn: page.faults for page in feed.hot_pages(1 << 17)}
    for report in ground_truth:
        assert heat[report.vpn] == report.faults
        expected_pairs = {
            (src, victim): count
            for src, victim, count in report.invalidation_pairs
        }
        assert dict(feed.ping_pong_pairs(1 << 17, vpn=report.vpn)) \
            == expected_pairs
    # hot_pages ranks by the same counts
    hottest = feed.hot_pages(1)[0]
    assert hottest.vpn == ground_truth[0].vpn
    assert hottest.faults == ground_truth[0].faults


def test_feed_owner_churn_tracks_write_grants():
    cluster, proc, var = _micro(rounds=20)
    feed = cluster.lens.feed
    vpn = var // 4096
    # every atomic bounce is an exclusive grant: churn tracks contention
    churniest = max(feed.hot_pages(), key=lambda page: page.churn)
    assert churniest.vpn == vpn and churniest.churn > 0
    # aggregated ping-pong view: both directions of the bounce appear
    pairs = dict(feed.ping_pong_pairs())
    assert sum(pairs.values()) > 0
    for (requester, victim) in pairs:
        assert requester != victim


# -- critical-path extraction -----------------------------------------------


def test_critical_path_histograms_cover_the_phases():
    cluster, proc, _ = _micro(rounds=30)
    feed = cluster.lens.feed
    assert feed.trees_completed > 0
    breakdown = feed.path_breakdown()
    # a contended cross-node micro exercises every phase
    for phase in (PathPhase.QUEUE, PathPhase.WIRE, PathPhase.HANDLER,
                  PathPhase.BLOCKED, PathPhase.COMPUTE):
        assert phase.value in breakdown, breakdown.keys()
        assert breakdown[phase.value]["count"] > 0
    # labels come from the shared enum only
    assert set(breakdown) <= {p.value for p in PathPhase}
    # quantiles ride the satellite Histogram API
    wire = breakdown[PathPhase.WIRE.value]
    assert wire["p50"] <= wire["p99"] <= wire["p999"] <= wire["max"]


def test_critical_path_sums_to_end_to_end_latency():
    """For the sequential fault trees of this protocol, per-phase parts
    sum to the root's duration (the walk conserves time)."""
    cluster, proc, _ = _micro(rounds=10)
    feed = cluster.lens.feed
    total_attributed = sum(
        child.sum for child in feed.path_us.per_label().values()
    )
    total_tree = sum(
        child.sum for child in feed.tree_us.per_label().values()
    )
    assert total_tree > 0
    assert total_attributed == pytest.approx(total_tree, rel=1e-6)


def test_critical_path_modes_split_like_dexstats():
    cluster, proc, _ = _micro(num_nodes=3, rounds=40)
    assert proc.stats.fault_retries > 0  # three hammers do collide
    feed = cluster.lens.feed
    modes = {mode for (app, mode) in feed.tree_us.per_label()}
    # a contended micro produces both fast and contended fault trees
    assert "fast" in modes and "contended" in modes
    apps = {app for (app, mode) in feed.tree_us.per_label()}
    assert "fault_wait" in apps and "compute" in apps


def test_tree_buffer_eviction_is_counted():
    def one_open_tree(cluster):
        cluster.lens.sink.max_traces = 1

    cluster, proc, _ = _micro(rounds=20, on_cluster=one_open_tree)
    feed = cluster.lens.feed
    # with room for a single open tree, interleaved traces force evictions
    assert feed.trees_evicted > 0
    assert feed.trees_completed > 0  # non-interleaved trees still complete


def test_path_phase_of_prefix_table():
    assert path_phase_of("net.wire") is PathPhase.WIRE
    assert path_phase_of("net.send") is PathPhase.QUEUE
    assert path_phase_of("rx.page_request") is PathPhase.HANDLER
    assert path_phase_of("protocol.invalidate") is PathPhase.BLOCKED
    assert path_phase_of("fault.follow") is PathPhase.BLOCKED
    assert path_phase_of("fault") is PathPhase.QUEUE
    assert path_phase_of("compute") is PathPhase.COMPUTE
    assert path_phase_of("anything.else") is PathPhase.HANDLER


# -- live top view ----------------------------------------------------------


def test_top_view_renders_on_sim_time_boundaries():
    stream = io.StringIO()
    views = []

    def attach(cluster):
        views.append(TopView(cluster.lens.feed, interval_us=200.0, limit=4,
                             stream=stream))
        cluster.engine.add_hook(views[0])

    cluster, proc, var = _micro(rounds=30, on_cluster=attach)
    assert views[0].frames >= 2
    text = stream.getvalue()
    assert "dex top @" in text
    assert "hottest pages" in text
    assert f"{var // 4096:#x}" in text
    assert "critical path" in text
    # the live view must not perturb the simulation
    plain_cluster, _, _ = _micro(rounds=30)
    assert cluster.engine.now == plain_cluster.engine.now


def test_top_view_not_attached_unless_asked():
    cluster, _, _ = _micro(rounds=5)
    assert cluster.engine.hooks.find(TopView) is None


def test_top_view_render_is_pure_query():
    cluster, _, _ = _micro(rounds=10)
    view = TopView(cluster.lens.feed, interval_us=1e9, limit=4)
    first = view.render()
    second = view.render()
    assert first == second  # no internal mutation of the feed


# -- flight recorder --------------------------------------------------------


def test_deadlock_dumps_loadable_connected_snapshot(tmp_path):
    """Seeded ABBA deadlock: the DeadlockError triggers an auto-dump whose
    span forest includes the still-open (unfinished) blocked spans and at
    least one connected cross-node trace."""
    dump = tmp_path / "flightrec.json"
    cluster = make_cluster(
        num_nodes=2, sanitize="deadlock", lens="1",
        lens_dump_path=str(dump),
    )
    proc = cluster.create_process()
    alloc = MemoryAllocator(proc)
    lock_a = Mutex(alloc, name="A")
    lock_b = Mutex(alloc, name="B")

    def holder_ab(ctx):
        yield from lock_a.lock(ctx)
        yield from ctx.sleep(5000)
        yield from lock_b.lock(ctx)

    def holder_ba(ctx):
        yield from ctx.migrate(1)
        yield from lock_b.lock(ctx)
        yield from ctx.sleep(5000)
        yield from lock_a.lock(ctx)

    def main(ctx):
        t1 = ctx.spawn(holder_ab, name="ab")
        t2 = ctx.spawn(holder_ba, name="ba")
        yield from proc.join_all([t1, t2])

    with pytest.raises(DeadlockError):
        cluster.simulate(main, proc)

    assert dump.exists()
    assert cluster.lens.dump_path == str(dump)
    spans, meta = load_snapshot(str(dump))
    assert meta["reason"].startswith("DeadlockError")
    assert spans
    # the deadlocked threads' blocked spans are present, synthetically
    # closed and marked unfinished
    unfinished = [s for s in spans if s.attrs.get("unfinished")]
    assert unfinished
    assert any(s.name.startswith("futex.") for s in unfinished)
    # the snapshot holds at least one connected multi-span trace
    reports = [
        check_trace_tree(spans, tid) for tid in {s.trace_id for s in spans}
    ]
    connected = [r for r in reports if r.connected and len(r.spans) > 1]
    assert connected
    # and it loads as Chrome trace JSON (Perfetto-compatible shape)
    doc = json.loads(dump.read_text())
    assert doc["traceEvents"]
    assert {e["ph"] for e in doc["traceEvents"]} >= {"X", "M"}


def test_failstop_crash_dumps_snapshot_under_kmeans(tmp_path):
    """An unrecovered fail-stop crash during KMN@4 propagates
    NodeFailedError and leaves a loadable snapshot behind."""
    from repro.chaos import run_under_chaos
    from repro.chaos.scenario import ChaosRule, ChaosScenario

    dump = tmp_path / "kmn-crash.json"
    scenario = ChaosScenario(
        rules=[ChaosRule(kind="crash", node=1, at_us=4000.0)], seed=5,
    ).validate()
    params = SimParams(lens="1", lens_dump_path=str(dump), seed=5)
    with pytest.raises(NodeFailedError):
        run_under_chaos(
            "KMN", "initial", 4, "small",
            scenario=scenario, max_restarts=0, params=params,
            n_points=20_000, max_iters=1,
        )
    assert dump.exists()
    spans, meta = load_snapshot(str(dump))
    assert "NodeFailedError" in meta["reason"]
    assert spans
    reports = [
        check_trace_tree(spans, tid) for tid in {s.trace_id for s in spans}
    ]
    connected = [r for r in reports if r.connected and len(r.spans) > 1]
    assert connected
    # the message ring contributed instant events
    doc = json.loads(dump.read_text())
    assert any(e["ph"] == "i" for e in doc["traceEvents"])


def test_dump_path_empty_disables_autodump(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cluster = make_cluster(num_nodes=2, sanitize="deadlock", lens="1",
                           lens_dump_path="")
    proc = cluster.create_process()
    alloc = MemoryAllocator(proc)
    lock = Mutex(alloc, name="M")

    def main(ctx):
        yield from lock.lock(ctx)
        yield from lock.lock(ctx)

    with pytest.raises(DeadlockError):
        cluster.simulate(main, proc)
    assert cluster.lens.dump_path is None
    assert not list(tmp_path.glob("*.json"))


def test_ring_capacity_bounds_snapshot(tmp_path):
    recorders = []

    def small_rings(cluster):
        recorders.append(FlightRecorder(
            cluster.tracer, num_nodes=cluster.num_nodes,
            ring_spans=16, ring_msgs=8))
        cluster.engine.add_hook(recorders[0])

    cluster, proc, _ = _micro(rounds=40, on_cluster=small_rings)
    recorder = recorders[0]
    assert recorder.spans_seen > 16  # history really overflowed the ring
    snapshot = recorder.snapshot_spans()
    # bounded: at most ring_spans per node ring (+1 unbound ring), plus
    # any still-open spans
    assert len(snapshot) <= 16 * (cluster.num_nodes + 1) + len(
        cluster.tracer.open_spans()
    )
    path = tmp_path / "manual.json"
    recorder.dump(str(path), reason="manual")
    spans, meta = load_snapshot(str(path))
    assert meta["reason"] == "manual"
    assert len(spans) == len(snapshot)


# -- chaos-retry trace continuity (satellite fix) ---------------------------


def test_resent_reply_keeps_original_trace(tmp_path):
    """Dropping a grant forces the responder to re-send its cached reply;
    the clone must carry the original trace context so the fault tree
    stays connected instead of rooting a fresh net.* trace."""
    from repro.chaos import run_pagefault_micro
    from repro.chaos.scenario import ChaosRule, ChaosScenario

    scenario = ChaosScenario(
        rules=[ChaosRule(kind="drop", msg_type="page_grant", nth=1)],
        seed=3,
    ).validate()
    cluster = DexCluster(
        num_nodes=2,
        params=SimParams(trace="1", sanitize="", chaos_scenario=scenario),
    )
    out = run_pagefault_micro(cluster=cluster)
    assert out["ok"], out
    assert out["report"]["replies_resent"] >= 1

    spans = cluster.tracer.spans
    by_id = {s.span_id: s for s in spans}
    resends = [s for s in spans if s.name == "net.resend"]
    assert resends, "the resend path must be span-visible"
    for resend in resends:
        # adopted into the original trace, never a root of its own
        assert resend.parent_id is not None
        assert resend.parent_id in by_id
        assert by_id[resend.parent_id].trace_id == resend.trace_id
        # the whole tree the resend joined is connected
        report = check_trace_tree(spans, resend.trace_id)
        assert report.connected, report.format()
        root = report.roots[0]
        assert not root.name.startswith("net."), root
    # no resent grant ends up rooting a trace of its own
    for s in spans:
        if s.name == "net.send" and s.attrs.get("msg_type") == "page_grant":
            assert s.parent_id is not None
