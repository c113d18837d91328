"""The diagnostics-off zero-cost guarantee, guarded three ways:

1. structurally — with ``DEX_TRACE`` unset no tracer object exists, hot
   paths see ``proc.obs is None``, the engine and the process have no
   observer and every probe list is empty, and messages carry no trace
   context; chaos is ``cluster.chaos is None`` and scope ``cluster.scope
   is None`` with no sampler registered;
2. semantically — tracing on/off yields bit-identical simulated time and
   fault counts (instrumentation must never perturb the model);
3. a microbound — the entire per-fault off-mode cost of all three
   diagnostic layers (a generous over-count of guard evaluations times
   the measured cost of each real guard) must stay under 3% of the
   measured per-fault wall time.

CI's ``check`` job runs this file explicitly with ``DEX_TRACE`` unset.
"""

import timeit
from time import perf_counter

import pytest

from repro import DexCluster, SimParams
from repro.net.messages import Message, MsgType
from repro.runtime import MemoryAllocator

#: generous over-estimate of instrumented guard sites evaluated per fault
#: (fault + acquire + request/send/wire/rdma legs + grant + revoke + rx
#: adoption + the surrounding compute calls)
GUARDS_PER_FAULT = 64


def _run_workload(trace, lens="", scope=""):
    """A contended 2-node ping-pong; sanitize, lens, and scope off
    explicitly so the check matrix's DEX_SANITIZE=1 / DEX_LENS=1 /
    DEX_SCOPE=1 cannot add hooks of their own."""
    cluster = DexCluster(
        num_nodes=2,
        params=SimParams(trace=trace, sanitize="", lens=lens, scope=scope))
    proc = cluster.create_process()
    alloc = MemoryAllocator(proc)
    var = alloc.alloc_global(8, tag="hot")

    def hammer(ctx, dest, rounds):
        if dest is not None:
            yield from ctx.migrate(dest)
        for _ in range(rounds):
            yield from ctx.atomic_add_i64(var, 1, site="h")
            yield from ctx.compute(cpu_us=0.5)

    t1 = proc.spawn_thread(hammer, None, 40)
    t2 = proc.spawn_thread(hammer, 1, 40)

    def main(ctx):
        yield from proc.join_all([t1, t2])

    cluster.simulate(main, proc)
    return cluster, proc


def test_off_mode_is_structurally_zero_cost(monkeypatch):
    monkeypatch.delenv("DEX_TRACE", raising=False)
    cluster, proc = _run_workload(trace=None)  # None defers to the env
    assert cluster.tracer is None
    assert cluster.engine.tracer is None
    assert proc.obs is None
    # nobody watches: nothing on the per-step, per-message or per-access
    # hot paths, which test these very lists
    assert cluster.engine.hooks.observers == []
    assert not any(cluster.engine.hooks.values())
    # scope off: no sampler registered, the run loop compares one float
    # against +inf per dispatch, and the fabric never times the wire
    assert cluster.scope is None
    assert cluster.net._on_wire is cluster.engine.hooks["wire"]
    assert cluster.engine._on_sample == []
    assert cluster.engine._next_sample == float("inf")
    # messages default to carrying no trace context
    msg = Message(MsgType.PAGE_REQUEST, src=0, dst=1)
    assert msg.trace_id is None and msg.parent_span is None


def test_chaos_and_check_off_every_probe_list_is_empty(monkeypatch):
    """With every diagnostic layer off no observer object exists and every
    probe list — the ones sites hold and the ones they look up — is empty;
    chaos is one attribute load against None (or a flag snapshotted at
    construction)."""
    monkeypatch.delenv("DEX_TRACE", raising=False)
    cluster, proc = _run_workload(trace=None)
    assert cluster.chaos is None
    assert proc.hooks.observers == [] and not any(proc.hooks.values())
    assert proc.faults._on_access is proc.hooks["access"]
    eng = cluster.engine
    assert eng.hooks.observers == [] and not any(eng.hooks.values())
    # the lifecycle lists the engine holds for its own dispatch sites
    assert eng._on_created is eng.hooks["process_created"]
    assert eng._on_waiting is eng.hooks["process_waiting"]
    assert eng._on_finished is eng.hooks["process_finished"]
    # chaos-off collapses message recycling to one snapshotted flag
    assert cluster.net._recycle is True


def test_trace_knob_resolution(monkeypatch):
    monkeypatch.delenv("DEX_TRACE", raising=False)
    monkeypatch.delenv("DEX_LENS", raising=False)  # the lens implies a tracer
    assert DexCluster(num_nodes=2, params=SimParams(trace="")).tracer is None
    assert DexCluster(num_nodes=2, params=SimParams(trace="1")).tracer is not None
    monkeypatch.setenv("DEX_TRACE", "1")
    assert DexCluster(num_nodes=2).tracer is not None
    monkeypatch.setenv("DEX_TRACE", "0")
    assert DexCluster(num_nodes=2).tracer is None
    with pytest.raises(ValueError):
        DexCluster(num_nodes=2, params=SimParams(trace="bogus"))


def test_scope_knob_resolution(monkeypatch):
    monkeypatch.delenv("DEX_TRACE", raising=False)
    monkeypatch.delenv("DEX_LENS", raising=False)
    monkeypatch.delenv("DEX_SCOPE", raising=False)
    assert DexCluster(num_nodes=2, params=SimParams(scope="")).scope is None
    cluster = DexCluster(num_nodes=2, params=SimParams(scope="1"))
    assert cluster.scope is not None
    # the fabric's wire stage tests this list
    assert cluster.net._on_wire == [cluster.scope.on_wire]
    assert cluster.engine._on_sample == [cluster.scope.on_sample]
    monkeypatch.setenv("DEX_SCOPE", "1")
    assert DexCluster(num_nodes=2).scope is not None
    monkeypatch.setenv("DEX_SCOPE", "0")
    assert DexCluster(num_nodes=2).scope is None
    with pytest.raises(ValueError):
        DexCluster(num_nodes=2, params=SimParams(scope="bogus"))


def test_tracing_does_not_perturb_the_simulation():
    off_cluster, off_proc = _run_workload(trace="")
    on_cluster, on_proc = _run_workload(trace="1")
    assert on_cluster.engine.now == off_cluster.engine.now  # bit-identical
    assert on_proc.stats.total_faults == off_proc.stats.total_faults
    assert on_proc.stats.fault_retries == off_proc.stats.fault_retries
    assert on_cluster.tracer.spans and off_cluster.tracer is None
    # with the lens off nobody listens for spans or messages: the
    # span-close path is one truthiness test on a held empty list
    assert on_cluster.lens is None
    assert on_cluster.engine.hooks.observers == [on_cluster.tracer]
    assert on_cluster.tracer._on_span_close == []
    assert on_cluster.engine.hooks["message"] == []


def test_off_mode_guard_cost_within_three_percent(monkeypatch):
    monkeypatch.delenv("DEX_TRACE", raising=False)
    start = perf_counter()
    cluster, proc = _run_workload(trace=None)
    wall = perf_counter() - start
    faults = proc.stats.total_faults
    assert faults > 0
    per_fault_wall = wall / faults
    # the off-mode cost per instrumented site is one attribute load plus a
    # None check (spans, chaos), a truth test of a held list (per-access
    # and per-message probes) or a loop over an empty one (the others);
    # measure the real primitives on the real objects
    def bare_loop():
        for granted in proc.hooks["grant"]:
            granted()

    n = 20_000
    guards = (
        lambda: proc.obs is None,
        lambda: not proc.faults._on_access,
        bare_loop,
        lambda: cluster.chaos is None,
        lambda: not cluster.net._on_wire,
    )
    guard_cost = sum(
        min(timeit.repeat(guard, number=n, repeat=5)) / n for guard in guards
    ) / len(guards)
    assert guard_cost * GUARDS_PER_FAULT <= 0.03 * per_fault_wall, (
        f"off-mode guards cost {guard_cost * GUARDS_PER_FAULT * 1e6:.2f}us "
        f"per fault, over 3% of the {per_fault_wall * 1e6:.1f}us per-fault "
        f"wall time"
    )


def test_scope_sampling_cost_within_three_percent(monkeypatch):
    """The DexScope acceptance bound: with DEX_SCOPE=1 the hot loop pays
    one float compare per dispatch plus one read-only sweep per grid
    interval.  Measured as a microbound (like the off-mode guard test):
    real primitives on a real sampled cluster, amortized over the
    dispatches each firing covers, against the unsampled run's measured
    per-dispatch wall time."""
    from repro.bench.runner import run_point

    workload = {"n_points": 10_000, "max_iters": 2}
    wall = min(
        _timed(lambda: run_point(
            "KMN", "initial", 4, params=SimParams(scope=""), **workload
        ))
        for _ in range(2)
    )
    params = SimParams(scope="1")
    cluster = DexCluster(num_nodes=8, params=params)
    run_point("KMN", "initial", 4, params=params, cluster=cluster, **workload)
    scope, engine = cluster.scope, cluster.engine
    assert scope.samples > 1
    # determinism (test_obs_scope) guarantees both runs dispatched the
    # same event stream, so the sampled run's counts price the off run
    dispatched = engine.events_dispatched
    per_dispatch_wall = wall / dispatched
    dispatches_per_sample = dispatched / scope.samples

    n = 20_000
    compare_cost = min(timeit.repeat(
        lambda: engine.now >= engine._next_sample, number=n, repeat=5
    )) / n
    t = engine.now
    sweep_cost = min(timeit.repeat(
        lambda: scope.on_sample(t), number=200, repeat=3
    )) / 200
    overhead = compare_cost + sweep_cost / dispatches_per_sample
    assert overhead <= 0.03 * per_dispatch_wall, (
        f"DEX_SCOPE=1 costs {overhead * 1e9:.0f}ns per dispatch "
        f"({compare_cost * 1e9:.0f}ns compare + {sweep_cost * 1e6:.1f}us "
        f"sweep / {dispatches_per_sample:.0f} dispatches), over 3% of the "
        f"{per_dispatch_wall * 1e6:.2f}us per-dispatch wall time"
    )


def _timed(fn):
    start = perf_counter()
    fn()
    return perf_counter() - start
