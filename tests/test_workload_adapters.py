"""Differential tests for the request-sized query adapters in
repro.apps.workloads: driving an adapter over every slot of the working
set must reproduce exactly what the batch path computes over the whole
set.  References are computed host-side (numpy / pure python), so a bug
in the DSM read path or the slot arithmetic cannot self-certify."""

import numpy as np

from repro.apps import workloads
from repro.apps.blackscholes import FIELDS, _price_arrays
from repro.core.cluster import DexCluster
from repro.params import SimParams
from repro.runtime import MemoryAllocator
from repro.runtime.array import alloc_array


def make_cluster(seed=9):
    return DexCluster(num_nodes=2, params=SimParams().copy(seed=seed))


def ref_starting_counts(text, keys, lo, hi):
    """Independent occurrence counter: matches *starting* in [lo, hi)."""
    return [
        sum(1 for i in range(lo, hi) if text[i:i + len(key)] == key)
        for key in keys
    ]


def test_kmn_query_matches_batch_assignment():
    n, k, per = 1024, 4, 128
    cluster = make_cluster()
    proc = cluster.create_process(name="kmn-diff")
    alloc = MemoryAllocator(proc)
    points = workloads.clustered_points(n, k, seed=3)
    centers = points[:k].copy()
    points_arr = alloc_array(alloc, np.float64, n * 3, name="points",
                             page_aligned=True)
    centroids = alloc_array(alloc, np.float64, k * 3, name="centroids",
                            segment="globals", page_aligned=True)

    def main(ctx):
        yield from points_arr.write(ctx, 0, points.ravel())
        yield from centroids.write(ctx, 0, centers.ravel())
        labels = []
        for lo in range(0, n, per):
            got = yield from workloads.kmn_query(
                ctx, points_arr, centroids, k, lo, lo + per)
            labels.append(got)
        return np.concatenate(labels)

    got = cluster.simulate(main, proc)
    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(got, d2.argmin(axis=1))


def test_grp_lookup_matches_reference_counts():
    n, per = 16_384, 4_096
    cluster = make_cluster()
    proc = cluster.create_process(name="grp-diff")
    alloc = MemoryAllocator(proc)
    text = workloads.text_corpus(n, seed=5, plant_every=100)
    keys = workloads.DEFAULT_KEYS
    text_arr = alloc_array(alloc, np.uint8, n, name="text", page_aligned=True)

    def main(ctx):
        yield from text_arr.write(ctx, 0, np.frombuffer(text, dtype=np.uint8))
        per_slot = []
        for lo in range(0, n, per):
            got = yield from workloads.grp_lookup(
                ctx, text_arr, n, keys, lo, lo + per)
            per_slot.append(got)
        return per_slot

    per_slot = cluster.simulate(main, proc)
    for slot, lo in enumerate(range(0, n, per)):
        assert per_slot[slot] == ref_starting_counts(text, keys, lo, lo + per)
    # slot-wise sums equal the whole-corpus batch answer
    totals = [sum(col) for col in zip(*per_slot)]
    assert totals == ref_starting_counts(text, keys, 0, n)
    assert sum(totals) > 0  # the corpus plants real matches


def test_scan_query_folds_into_shared_hit_counters():
    n, per = 16_384, 4_096
    cluster = make_cluster()
    proc = cluster.create_process(name="scan-diff")
    alloc = MemoryAllocator(proc)
    text = workloads.text_corpus(n, seed=6, plant_every=100)
    keys = workloads.DEFAULT_KEYS
    text_arr = alloc_array(alloc, np.uint8, n, name="text", page_aligned=True)
    hits = alloc_array(alloc, np.int64, len(keys), name="hits",
                       segment="globals", page_aligned=True)

    def main(ctx):
        yield from text_arr.write(ctx, 0, np.frombuffer(text, dtype=np.uint8))
        per_slot = []
        for lo in range(0, n, per):
            got = yield from workloads.scan_query(
                ctx, text_arr, n, keys, hits, lo, lo + per)
            per_slot.append(got)
        final = yield from hits.read(ctx)
        return per_slot, final

    per_slot, final = cluster.simulate(main, proc)
    expected_totals = ref_starting_counts(text, keys, 0, n)
    for slot, lo in enumerate(range(0, n, per)):
        assert per_slot[slot] == ref_starting_counts(text, keys, lo, lo + per)
    # the contended shape: shared counters accumulate the same totals
    assert list(final) == expected_totals


def test_blk_price_query_matches_batch_pricing():
    n, per = 2_048, 512
    cluster = make_cluster()
    proc = cluster.create_process(name="blk-diff")
    alloc = MemoryAllocator(proc)
    batch = workloads.option_batch(n, seed=8)
    inputs = {
        name: alloc_array(alloc, np.float64, n, name=name, page_aligned=True)
        for name in FIELDS
    }
    flags = alloc_array(alloc, np.uint8, n, name="flags", page_aligned=True)

    def main(ctx):
        for name in FIELDS:
            yield from inputs[name].write(ctx, 0, getattr(batch, name))
        yield from ctx.write(flags.addr, batch.is_call.astype(np.uint8).tobytes())
        prices = []
        for lo in range(0, n, per):
            got = yield from workloads.blk_price_query(
                ctx, inputs, flags, lo, lo + per)
            prices.append(got)
        return np.concatenate(prices)

    got = cluster.simulate(main, proc)
    expected = _price_arrays(batch.spot, batch.strike, batch.rate,
                             batch.volatility, batch.maturity, batch.is_call)
    assert np.allclose(got, expected)


def test_adapters_do_not_disturb_batch_entrypoints():
    # the batch mains the adapters were factored from still exist and
    # stay importable — serving is a layer, not a rewrite
    from repro.apps import blackscholes, common, kmeans, string_match

    for mod in (kmeans, string_match, blackscholes):
        # the worker harness now sits behind the shared epilogue
        assert callable(mod.run) and mod.finish is common.finish
    assert callable(common.run_workers)
