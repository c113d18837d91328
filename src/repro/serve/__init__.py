"""DexServe: a multi-tenant serving layer over the DeX fabric.

N tenants (KMN model queries, GRP lookups, BLK pricing, string-match
scans) share one :class:`~repro.core.cluster.DexCluster` under
deterministic open-loop load, with per-node admission control,
queue-based load leveling, bulkheaded worker pools, and per-tenant SLO
reporting through the DexTrace/DexScope stack.
Each decision has one home: a workload kind is an entry of
:data:`KINDS`, and an admission verdict is the request's own status, left
by :meth:`AdmissionPolicy.decide` (QUEUED, REJECTED, THROTTLED or SHED).

Nothing in the core simulator imports this package: serving is strictly
a layer on top, and a run without it pays nothing for its existence
(asserted by the zero-cost guard in ``tests/test_serve.py``).

Entry points::

    python -m repro.serve                # run a scenario
    python -m repro.serve report x.json  # re-render a saved report

or programmatically::

    from repro.serve import ArrivalCurve, ServeManager, TenantSpec

    spec = TenantSpec("pricing", "blk",
                      ArrivalCurve("constant", rate=8000, requests=2000),
                      nodes=(6, 7))
    report = ServeManager([spec], num_nodes=8, seed=42).run()
"""

from repro.serve.arrivals import ArrivalCurve, arrival_times, parse_curve
from repro.serve.manager import ServeManager
from repro.serve.kinds import KINDS
from repro.serve.policy import (
    POLICIES, AdmissionPolicy, RejectPolicy, ShedOldestPolicy,
    TokenBucketPolicy)
from repro.serve.queueing import Request, ServeQueue
from repro.serve.report import build_report, render_report
from repro.serve.tenant import Tenant, TenantSpec

__all__ = ["AdmissionPolicy", "ArrivalCurve", "KINDS", "POLICIES",
           "RejectPolicy", "Request", "ServeManager", "ServeQueue",
           "ShedOldestPolicy", "Tenant", "TenantSpec", "TokenBucketPolicy",
           "arrival_times", "build_report", "parse_curve",
           "render_report"]
