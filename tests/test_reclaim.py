"""Reclamation: a finished run frees itself.

Whoever builds a cluster closes it (``DexCluster.close``), a finished sim
process drops its pre-bound callbacks, a retired ``DexProcess`` lets go
of its services and its observers, and the engine lets go of its
observers — so a run leaves no reference cycle behind, and everything it
allocated (frames, PTEs, handler generators, span trees, sanitizer clocks)
goes back by reference counting the moment its owner drops it, not at some
later cyclic collection.  Each case runs with every ``DEX_*`` switch off
(or one observer, checker or fault-injection knob on) and the cyclic
collector disabled, then asks a full collection (``DEBUG_SAVEALL``) what it
found unreachable: the answer must be nothing.
"""

import collections
import gc
import re
import weakref

import pytest

from conftest import collector_off
from repro import DexCluster, SimParams
from repro.apps.common import APP_NAMES, RunSpec
from repro.bench.runner import run_point
from repro.chaos import ChaosScenario, run_under_chaos
from repro.params import SWITCHES
from repro.serve import ServeManager
from repro.sim import engine as engine_module
from test_apps import TINY
from test_page_plane import seven_readers
from test_serve import kmn_spec, scan_burst_spec


@pytest.fixture(autouse=True)
def switches_off(monkeypatch):
    """Every run starts with all knobs off; a case turns on the one it is
    about."""
    for switch in SWITCHES.values():
        monkeypatch.delenv(switch.env, raising=False)


def unreachable_after(run):
    """How many objects a full collection finds unreachable once *run()*
    returned and its result was dropped, and their types (the second of
    two runs: the first pays for lazy imports and memoised inputs)."""
    run()
    with collector_off():
        run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            found = gc.collect()
            kinds = collections.Counter(type(o).__qualname__ for o in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
    return found, kinds


def serve(directory):
    ServeManager([kmn_spec(requests=40), scan_burst_spec(requests=60)],
                 num_nodes=4, seed=42, directory=directory).run()


RUNS = {
    **{f"{app}-{variant}": (lambda app=app, variant=variant:
                            run_point(app, variant, 2, **TINY[app]))
       for app in APP_NAMES for variant in ("initial", "optimized")},
    "serve-origin": lambda: serve("origin"),
    "serve-sharded": lambda: serve("sharded"),
    "pagefault": lambda: RunSpec(
        "pagefault", overrides={"duration_us": 2_000.0}).run(),
    # the chaos harness closes every cluster it builds
    "harness-micro": lambda: run_under_chaos(RunSpec("micro"),
                                             ChaosScenario(seed=1)),
    "harness-EP": lambda: run_under_chaos(
        RunSpec("EP", nodes=2, overrides={"n_pairs": 60_000})),
    # seven replicas and the home hold one shared snapshot of the page
    "shared-snapshots": lambda: seven_readers("sharded"),
}


#: every run knobs off, and three of them again with one observer,
#: checker or fault-injection knob on
CASES = [pytest.param(name, None, id=name) for name in RUNS] + [
    pytest.param(name, knob, id=f"{name}-{knob}")
    for knob in ("trace", "lens", "scope", "sanitize", "chaos")
    for name in ("KMN-initial", "serve-sharded", "pagefault")]


@pytest.mark.parametrize("name, knob", CASES)
def test_a_finished_run_leaves_no_cyclic_garbage(name, knob, monkeypatch,
                                                 open_clusters):
    if knob is not None:
        monkeypatch.setenv(SWITCHES[knob].env, "1")
    found, kinds = unreachable_after(RUNS[name])
    assert found == 0, f"{name}: {found} unreachable, {kinds.most_common(12)}"
    assert open_clusters == [], "a run left the cluster it built open"


def test_a_refused_manager_builds_nothing(open_clusters):
    """ServeManager checks its tenants before it builds the rack: one it
    refuses leaves no cluster behind, open or as garbage."""
    def refused():
        with pytest.raises(ValueError, match="outside the 2-node cluster"):
            ServeManager([kmn_spec(nodes=(0, 3))], num_nodes=2)

    found, kinds = unreachable_after(refused)
    assert found == 0, f"{found} unreachable, {kinds.most_common(12)}"
    assert open_clusters == []


def test_close_keeps_observer_results_readable():
    cluster = DexCluster(num_nodes=4, params=SimParams(
        trace="1", lens="1", scope="1", lens_dump_path=""))
    run_point("KMN", "initial", 2, cluster=cluster, **TINY["KMN"])
    feed, scope = cluster.lens.feed, cluster.scope
    before = (len(cluster.tracer.spans), feed.hot_pages(8),
              feed.path_breakdown(), scope.series_dict())
    cluster.close()
    assert cluster.engine.tracer is None
    assert cluster.engine.hooks.observers == [] and cluster.engine._on_sample == []
    after = (len(cluster.tracer.spans), cluster.lens.feed.hot_pages(8),
             cluster.lens.feed.path_breakdown(), cluster.scope.series_dict())
    assert after == before and before[0] > 0 and before[1] and before[3]
    assert cluster.scope.counter_events()


def test_a_finished_handler_process_is_freed_at_once(monkeypatch):
    """No cyclic collection needed, and no cluster close either: a
    handler's sim process is gone as soon as it has run, even while the
    caller keeps the cluster open."""
    born = []

    class Tracked(engine_module.Process):
        __slots__ = ("__weakref__",)

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            born.append((self.name, weakref.ref(self)))

    monkeypatch.setattr(engine_module, "Process", Tracked)
    cluster = DexCluster()
    with collector_off():
        result = run_point("KMN", "initial", 2, cluster=cluster, **TINY["KMN"])
        handlers = [(name, ref) for name, ref in born
                    if re.fullmatch(r"n\d+\.\w+", name)]
        alive = [name for name, ref in handlers if ref() is not None]
    assert result.correct and len(handlers) > 100
    assert alive == []


def test_close_keeps_results_readable_and_is_idempotent():
    cluster = DexCluster()
    result = run_point("BFS", "initial", 2, cluster=cluster, **TINY["BFS"])
    before = (cluster.now, cluster.engine.events_dispatched,
              cluster.net.messages_sent, cluster.net.page_payloads,
              [c.bytes_on_wire for c in cluster.net.connections.values()],
              cluster.net.pool_pressure(), result.stats.total_faults)
    (proc,) = cluster.processes.values()
    cluster.close()
    cluster.close()
    after = (cluster.now, cluster.engine.events_dispatched,
             cluster.net.messages_sent, cluster.net.page_payloads,
             [c.bytes_on_wire for c in cluster.net.connections.values()],
             cluster.net.pool_pressure(), proc.stats.total_faults)
    assert before == after and before[2] > 0
    assert cluster.processes == {} and proc.stats is result.stats
    assert not hasattr(proc, "cluster") and not hasattr(proc, "protocol")
