"""What a recording observer sees of one small run, as JSON on stdout.

``python tests/probe_log.py pingpong|pagefault|kmn4|chaos|serve`` — run by
``tests/test_hooks.py`` in subprocesses (another ``PYTHONHASHSEED``, another
interpreter) and imported by it for the in-process runs.  ``pingpong``
needs the standard library alone: it first imports every package that
claims to, then hammers one word from two nodes with the sanitizer on.
``chaos`` is the chaos harness's control-message micro with one page
request dropped and one invalidation duplicated, sanitizer on.  ``serve``
is a two-tenant DexServe run (``scan`` and ``kmn``, constant arrivals, so
no draw from an RNG) on 4 nodes with the sharded directory and the
sanitizer on; its result is the SHA-256 of the report's bytes.
"""

import hashlib
import importlib
import json
import sys

#: importable on a bare interpreter (no numpy): the substrate and its tools
STDLIB_ONLY = (
    "sim", "net", "memory", "core", "check", "chaos", "obs", "vet", "tools",
    "params", "runtime", "runtime.alloc", "runtime.sync", "runtime.openmp",
)


class Recorder:
    """Defines every ``on_<probe>``: ``seen`` is the ``[probe, args]``
    sequence, with anything but a number or a string reduced to its type
    name (object identities and pids differ between runs by design)."""

    def __init__(self):
        self.seen = []

    def __getattr__(self, name):
        if not name.startswith("on_"):
            raise AttributeError(name)

        def record(*args):
            self.seen.append([name[3:], [
                arg if isinstance(arg, (int, float, str, type(None)))
                else type(arg).__name__ for arg in args]])

        return record


def watch(cluster, recorder):
    """Every process *cluster* creates from here on is watched by
    *recorder* (after the checkers its own constructor added)."""
    create = cluster.create_process

    def create_watched(*args, **kwargs):
        proc = create(*args, **kwargs)
        proc.add_hook(recorder)
        return proc

    cluster.create_process = create_watched


def hammer_pair(cluster, rounds, cpu_us):
    """Two threads of a fresh process on two nodes adding to one word;
    returns (proc, run), ``run()`` giving the word's final value."""
    from repro.runtime.alloc import MemoryAllocator

    proc = cluster.create_process()
    var = MemoryAllocator(proc).alloc_global(8, tag="hot")

    def hammer(ctx, dest):
        if dest is not None:
            yield from ctx.migrate(dest)
        for _ in range(rounds):
            yield from ctx.atomic_add_i64(var, 1, site="hammer")
            yield from ctx.compute(cpu_us=cpu_us)

    def main(ctx):
        threads = [proc.spawn_thread(hammer, None, parent_tid=ctx.tid),
                   proc.spawn_thread(hammer, 1, parent_tid=ctx.tid)]
        yield from proc.join_all(threads)
        return (yield from ctx.read_i64(var))

    return proc, lambda: cluster.simulate(main, proc)


def pingpong():
    from repro.core import DexCluster
    from repro.params import SimParams

    cluster = DexCluster(num_nodes=2, params=SimParams(sanitize="1"))
    return (cluster, *hammer_pair(cluster, rounds=80, cpu_us=20.0))


def pagefault():
    from repro.apps.common import RunSpec

    spec = RunSpec("pagefault", overrides={"duration_us": 2_000.0})
    cluster = spec.cluster()
    return cluster, None, lambda: spec.run(cluster=cluster).correct


def kmn4():
    from repro.apps.common import RunSpec

    spec = RunSpec("KMN", "initial", 4)
    cluster = spec.cluster()
    return cluster, None, lambda: spec.run(cluster=cluster).correct


def chaos():
    from repro.apps.common import RunSpec
    from repro.chaos import ChaosRule, ChaosScenario
    from repro.params import SimParams

    scenario = ChaosScenario(rules=[
        ChaosRule(kind="drop", msg_type="page_request", nth=1),
        ChaosRule(kind="duplicate", msg_type="page_invalidate", nth=1),
    ], seed=3).validate()
    spec = RunSpec("micro", base=SimParams(chaos_scenario=scenario,
                                           sanitize="1"))
    cluster = spec.cluster()

    return cluster, None, lambda: spec.run(cluster=cluster).output


def serve():
    from repro.params import SimParams
    from repro.serve import ArrivalCurve, ServeManager, TenantSpec

    def tenant(kind, nodes, seed):
        return TenantSpec(kind, kind, ArrivalCurve("constant", rate=8_000,
                                                   requests=40),
                          nodes=nodes, items=8_192, request_items=512,
                          seed=seed)

    manager = ServeManager([tenant("scan", (0, 1), 1), tenant("kmn", (2, 3), 2)],
                           num_nodes=4, seed=42, directory="sharded",
                           params=SimParams(sanitize="1"))

    def run():
        report = json.dumps(manager.run(), sort_keys=True, indent=2)
        return hashlib.sha256(report.encode()).hexdigest()

    return manager.cluster, None, run


def log(workload):
    """Run *workload* watched — one recorder on the process(es), one on the
    engine — and return the JSON-ready account of it."""
    cluster, proc, run = globals()[workload]()
    on_process, on_engine = Recorder(), Recorder()
    if proc is None:
        watch(cluster, on_process)
    else:  # built already: the services' held lists must still see it
        proc.add_hook(on_process)
    cluster.engine.add_hook(on_engine)
    result = run()
    procs = list(cluster.processes.values())
    doc = {
        "result": result,
        "now": cluster.engine.now,
        "events": cluster.engine.events_dispatched,
        "latencies": [r.latency_us for p in procs
                      for r in p.stats.fault_latencies],
    }
    for side, recorder in (("process", on_process), ("engine", on_engine)):
        doc[side + "_probes"] = len(recorder.seen)
        doc[side + "_digest"] = hashlib.sha256(
            json.dumps(recorder.seen).encode()).hexdigest()
    if workload == "pingpong":  # small enough to show where two runs part
        doc["process_seen"] = on_process.seen
    return doc


if __name__ == "__main__":
    for package in STDLIB_ONLY:
        importlib.import_module("repro." + package)
    json.dump(log(sys.argv[1]), sys.stdout, indent=0)
