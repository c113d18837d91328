"""The observation plane: ``add_hook`` on the engine and on a process is
the one way to watch a run.  What is pinned here: late observers reach the
lists sites already hold, callbacks keep ``add_hook`` order, an observer's
exception reaches the thread whose action fired the probe, processes on one
cluster are watched separately, observing costs no dispatch unless the
observer asks for process lifecycle — and the probe sequence of a run is a
function of the run alone: the same on every repeat, under every hash seed
and (for the numpy-free substrate) on every interpreter this box has.
"""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import probe_log
from repro.check import CoherenceViolation
from repro.core.process import PROCESS_PROBES
from repro.sim.engine import ENGINE_PROBES, Engine, Hooks

from conftest import make_cluster

ROOT = Path(__file__).resolve().parent.parent
#: the bare (stdlib-only) interpreters of this box, by path: the pyenv
#: shims refuse to run without PYENV_VERSION
BARE = sorted(Path("/root/.pyenv/versions").glob("3.1[0-9]*/bin/python"))


def contended(cluster):
    """(proc, run) of a short two-node hammer on *cluster*."""
    return probe_log.hammer_pair(cluster, rounds=12, cpu_us=100.0)


def probes_of(recorder):
    return {probe for probe, _args in recorder.seen}


def test_the_registry_binds_what_an_observer_defines_and_nothing_else():
    class Partial:
        def on_grant(self, *args):
            pass

        on_wire = None  # an attribute, not a probe method

        def on_nothing_fires_this(self):
            pass

    hooks = Hooks("grant", "revoke", "wire")
    partial = Partial()
    hooks.add(partial)
    assert hooks == {"grant": [partial.on_grant], "revoke": [], "wire": []}
    assert hooks.observers == [partial] and hooks.find(Partial) is partial
    assert hooks.find(Hooks) is None
    with pytest.raises(KeyError):  # a site cannot misspell its probe
        hooks["granted"]
    assert set(Engine().hooks) == set(ENGINE_PROBES)
    assert len(set(PROCESS_PROBES)) == len(PROCESS_PROBES) == 22


def test_an_observer_added_after_the_services_were_built_is_seen():
    cluster = make_cluster(num_nodes=2, sanitize="")
    proc, run = contended(cluster)  # fault handler, fabric, pools: built
    on_process, on_engine = probe_log.Recorder(), probe_log.Recorder()
    proc.add_hook(on_process)
    cluster.engine.add_hook(on_engine)
    assert run() == 24
    # held lists (FaultHandler / ThreadContext, Network, Engine) ...
    assert {"access", "fault_begin"} <= probes_of(on_process)
    assert {"wire", "process_waiting"} <= probes_of(on_engine)
    # ... and looked-up ones, at the requester, the home and the victim
    assert {"transition", "grant", "revoke", "invalidate",
            "spawn"} <= probes_of(on_process)
    assert probes_of(on_process) <= set(PROCESS_PROBES)
    assert probes_of(on_engine) <= set(ENGINE_PROBES)
    faults = [args for probe, args in on_process.seen if probe == "fault_begin"]
    assert len(faults) == proc.stats.total_faults
    assert {args[4] for args in faults} >= {"hammer"}  # the site label


def test_callbacks_fire_in_add_hook_order():
    cluster = make_cluster(num_nodes=2, sanitize="")
    proc, run = contended(cluster)
    order = []

    class Tagged:
        def __init__(self, tag):
            self.tag = tag

        def on_grant(self, vpn, requester, write, entry=None):
            order.append((self.tag, vpn, requester))

        def on_process_finished(self, process):
            order.append((self.tag, "finished"))

    for tag in ("first", "second", "third"):
        observer = Tagged(tag)
        proc.add_hook(observer)
        cluster.engine.add_hook(observer)
    run()
    assert order and len(order) % 3 == 0
    for i in range(0, len(order), 3):
        a, b, c = order[i:i + 3]
        assert (a[0], b[0], c[0]) == ("first", "second", "third")
        assert a[1:] == b[1:] == c[1:]


@pytest.mark.parametrize("probe", ["access", "fault_begin", "transition"])
def test_an_observers_exception_reaches_the_faulting_thread(probe):
    """As the checkers' findings do: raised inside a thread's own fault
    path, it fails that thread, and ``simulate`` re-raises it."""
    cluster = make_cluster(num_nodes=2, sanitize="", lens="")
    proc, run = contended(cluster)

    def refuse(*args):
        raise CoherenceViolation(f"{probe} refused")

    proc.add_hook(SimpleNamespace(**{"on_" + probe: refuse}))
    with pytest.raises(CoherenceViolation, match=f"{probe} refused"):
        run()
    assert any(thread.sim_process.triggered and not thread.sim_process.ok
               for thread in proc.threads)


def test_processes_on_one_cluster_are_watched_separately():
    cluster = make_cluster(num_nodes=2, sanitize="")
    watched, run_watched = contended(cluster)
    other, run_other = contended(cluster)
    recorder = probe_log.Recorder()
    watched.add_hook(recorder)
    assert other.hooks.observers == [] and not any(other.hooks.values())
    run_other()
    assert recorder.seen == []  # the same rack, the same pages' numbers
    run_watched()
    assert len(recorder.seen) > 20


@pytest.mark.parametrize("trace", ["", "1"])
def test_a_span_close_only_observer_costs_no_dispatch(trace):
    """``Engine.process`` schedules a finish notification per process only
    for observers of process lifecycle; anything else — here span closes,
    wire and message notes — rides along for free, so the run's event
    count (and the checked-in manifests) cannot tell it is there."""

    class Listener:
        def __init__(self):
            self.spans = self.wires = self.messages = 0

        def on_span_close(self, span):
            self.spans += 1

        def on_wire(self, conn, wire_bytes, waited):
            self.wires += 1

        def on_message(self, now, msg):
            self.messages += 1

    def measure(listener):
        cluster = make_cluster(num_nodes=2, sanitize="", trace=trace,
                               lens="", scope="")
        _proc, run = contended(cluster)
        if listener is not None:
            cluster.engine.add_hook(listener)
        run()
        engine = cluster.engine
        return engine.now, engine._seq, engine.events_dispatched

    listener = Listener()
    assert measure(listener) == measure(None)
    assert listener.wires > 0
    assert (listener.spans > 0 and listener.messages > 0) == bool(trace)


def start(python, workload):
    """``probe_log.py <workload>`` under *python*, once per hash seed, all
    started now; :func:`accounts` collects what they print."""
    return [subprocess.Popen(
        [str(python), str(ROOT / "tests" / "probe_log.py"), workload],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"),
             "PYTHONHASHSEED": hashseed},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) for hashseed in ("0", "1")]


def accounts(started):
    for child in started:
        out, err = child.communicate(timeout=120)
        assert child.returncode == 0, err
        yield json.loads(out)


def parted(a, b):
    """Where two accounts of one workload differ, for the failure text."""
    keys = [key for key in a if a[key] != b.get(key)]
    seen = zip(a.get("process_seen", ()), b.get("process_seen", ()))
    first = next((pair for pair in seen if pair[0] != pair[1]), None)
    return f"differ in {keys}; first differing probe: {first}"


@pytest.mark.parametrize("workload", ["pagefault", "kmn4"])
def test_the_probe_sequence_is_a_function_of_the_run(workload):
    """Repeated in this process, and in fresh ones under two hash seeds:
    same probes, same arguments, same order — hook order never depends on
    hash order, id() or anything else that varies between runs."""
    fresh = start(sys.executable, workload)
    here = probe_log.log(workload)
    # (the engine side is waits on Events: a private sleep fires no probe)
    assert here["process_probes"] > 1000 and here["engine_probes"] > 200
    if workload == "pagefault":  # the cheap one also repeats in-process
        again = probe_log.log(workload)
        assert again == here, parted(here, again)
    for there in accounts(fresh):
        assert there == here, parted(here, there)


@pytest.mark.parametrize(
    "python", BARE or [pytest.param(None, marks=pytest.mark.skip(
        reason="no bare interpreter under /root/.pyenv/versions"))],
    ids=lambda path: path.parts[-3] if path else "none")
def test_the_substrate_runs_the_same_on_a_bare_interpreter(python):
    """The numpy-free core — every package ``probe_log.STDLIB_ONLY`` names
    imports, then a sanitized 2-node ping-pong runs — gives the very
    ``engine.now``, fault latencies and probe sequence this interpreter
    does, under two hash seeds."""
    there = start(python, "pingpong")
    here = probe_log.log("pingpong")
    assert here["result"] == 160 and len(here["latencies"]) > 20
    assert here["process_probes"] > 100
    for account in accounts(there):
        assert account == here, parted(here, account)
