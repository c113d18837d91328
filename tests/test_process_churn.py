"""Process churn: a long-lived cluster that runs many short-lived
processes (the DexServe tenant pattern) must not accumulate per-process
state, and retiring processes must not perturb simulation determinism
— two clusters with the same seed produce bit-identical engine digests
after a thousand create/simulate/retire cycles."""

import weakref

import numpy as np
import pytest

from conftest import collector_off
from repro.core.cluster import DexCluster
from repro.core.errors import DexError
from repro.params import SimParams
from repro.runtime import MemoryAllocator
from repro.runtime.array import alloc_array

ROUNDS = 1_000
PAGES_EVERY = 25  # every Nth round also allocates and touches pages


def churn(seed):
    cluster = DexCluster(num_nodes=2, params=SimParams().copy(seed=seed))
    refs = []
    checksum = 0.0
    for i in range(ROUNDS):
        proc = cluster.create_process(name=f"churn-{i}")
        if i % PAGES_EVERY == 0:
            alloc = MemoryAllocator(proc)
            arr = alloc_array(alloc, np.float64, 512, name=f"a{i}",
                              page_aligned=True)

            def main(ctx, arr=arr, i=i):
                yield from arr.write(
                    ctx, 0, np.arange(512, dtype=np.float64) + i)
                got = yield from arr.read(ctx, 0, 512)
                yield from ctx.compute(cpu_us=1.0)
                return float(got.sum())

        else:

            def main(ctx):
                yield from ctx.compute(cpu_us=1.0)
                return 0.0

        checksum += cluster.simulate(main, proc)
        cluster.retire_process(proc)
        refs.append(weakref.ref(proc))
        del proc
    digest = (cluster.engine.now, cluster.engine._seq,
              cluster.engine.events_dispatched)
    return cluster, refs, digest, checksum


def test_churn_is_bounded_and_deterministic():
    with collector_off():
        cluster, refs, digest, checksum = churn(seed=21)
        # no per-process state left behind on the cluster
        assert len(cluster.processes) == 0
        # retired processes are freed by reference counting alone: nothing
        # (engine, nodes, frame stores, their own services) pins them once
        # released, and no cycle waits for a collection
        alive = sum(1 for r in refs if r() is not None)
    assert alive == 0, f"{alive} of {ROUNDS} retired processes still pinned"

    # same seed, same churn -> bit-identical engine digest and results
    cluster2, _, digest2, checksum2 = churn(seed=21)
    assert digest == digest2
    assert checksum == checksum2
    assert len(cluster2.processes) == 0


def test_retire_refuses_live_threads():
    cluster = DexCluster(num_nodes=2, params=SimParams().copy(seed=4))
    proc = cluster.create_process(name="undying")
    ev = cluster.engine.event(name="never")

    def parked(ctx):
        yield ev

    proc.spawn_thread(parked, name="parked")
    with pytest.raises(DexError, match="still alive"):
        cluster.retire_process(proc)
    # force sweeps it (the recovery path for fail-stopped processes)
    cluster.retire_process(proc, force=True)
    assert len(cluster.processes) == 0
    ev.succeed()  # let the engine drain the parked event
    cluster.run()


def test_release_clears_node_state():
    cluster = DexCluster(num_nodes=2, params=SimParams().copy(seed=5))
    proc = cluster.create_process(name="stateful")
    alloc = MemoryAllocator(proc)
    arr = alloc_array(alloc, np.float64, 256, name="s", page_aligned=True)

    def main(ctx):
        yield from arr.write(ctx, 0, np.zeros(256))
        yield from ctx.migrate(1)
        got = yield from arr.read(ctx, 0, 256)
        yield from ctx.migrate_back()
        return float(got.sum())

    assert cluster.simulate(main, proc) == 0.0
    assert len(proc._node_states) > 0
    cluster.retire_process(proc)
    assert len(proc._node_states) == 0
    assert len(proc.threads) == 0
    assert len(proc.nodes_with_worker) == 0
