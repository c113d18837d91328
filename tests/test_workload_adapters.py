"""Differential tests for DexServe's request bodies (``serve/kinds.py``):
driving a kind's body over every slot of a tenant's working set must
reproduce what the batch path computes over the whole set.  References
are computed host-side (numpy / pure python) from the kind's own inputs,
so a bug in the DSM read path or the slot arithmetic cannot
self-certify."""

import numpy as np
import pytest

from repro.apps import workloads
from repro.core.cluster import DexCluster
from repro.obs.metrics import MetricsRegistry
from repro.params import SimParams
from repro.serve import ArrivalCurve, Request, Tenant, TenantSpec
from repro.serve.kinds import KINDS

ITEMS, PER = 4096, 512


def starting_counts(text, lo, hi):
    """Independent occurrence counter: matches *starting* in [lo, hi)."""
    return [sum(1 for i in range(lo, hi) if text[i:i + len(key)] == key)
            for key in workloads.DEFAULT_KEYS]


def nearest_centre(inputs):
    points, centers = inputs
    return ((points[:, None, :] - centers[None, :, :]) ** 2).sum(
        axis=2).argmin(axis=1)


#: kind -> its batch answer over the whole working set, as a function of
#: ``(inputs, lo, hi)`` giving one slot's share of it; a kind missing
#: here fails the test rather than skipping it
BATCH = {
    "kmn": lambda inputs, lo, hi: nearest_centre(inputs)[lo:hi],
    "grp": starting_counts,
    "scan": starting_counts,
    "blk": lambda batch, lo, hi:
        workloads.black_scholes_reference(batch)[lo:hi],
}


@pytest.mark.parametrize("name", list(KINDS))
def test_each_kinds_request_body_matches_its_batch_answer(name):
    kind = KINDS[name]
    spec = TenantSpec(name, name, ArrivalCurve("constant", rate=1_000,
                                               requests=1),
                      nodes=(0,), items=ITEMS, request_items=PER, seed=5)
    cluster = DexCluster(num_nodes=2, params=SimParams().copy(seed=9))
    tenant = Tenant(spec, cluster, MetricsRegistry())
    tenant.install()

    def main(ctx):
        got = []
        for slot in range(tenant.n_slots):
            lo, hi = tenant.request_span(slot)
            got.append((yield from tenant.execute(
                ctx, Request(slot, name, 0, 0.0, lo, hi))))
        if "hits" in tenant._arrays:  # the shared counters scan folds into
            return got, list((yield from tenant._arrays["hits"].read(ctx)))
        return got, None

    got, hits = cluster.simulate(main, tenant.proc)
    cluster.close()
    inputs = kind.inputs(ITEMS, spec.seed)
    want = [BATCH[name](inputs, lo, lo + PER) for lo in range(0, ITEMS, PER)]
    assert len(got) == len(want) == ITEMS // PER
    assert any(np.any(np.asarray(w)) for w in want)  # not a trivial answer
    for slot, (answer, expected) in enumerate(zip(got, want)):
        assert kind.check(answer, expected), f"{name} slot {slot}"
    if hits is not None:
        assert hits == [sum(col) for col in zip(*want)] and sum(hits) > 0


def test_adapters_do_not_disturb_batch_entrypoints():
    # the batch mains the request bodies were factored from still exist
    # and stay importable — serving is a layer, not a rewrite
    from repro.apps import blackscholes, common, kmeans, string_match

    for mod in (kmeans, string_match, blackscholes):
        # the worker harness now sits behind the shared epilogue
        assert callable(mod.run) and mod.finish is common.finish
    assert callable(common.run_workers)
