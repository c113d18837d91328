"""DexServe tenants: one named workload per DeX process.

A tenant bundles a workload kind (KMN model queries, GRP lookups, BLK
pricing calls, string-match scans), an arrival curve, a set of serving
nodes with a bounded worker pool per node (the bulkhead), an admission
policy, and a resident working set allocated in its own
:class:`~repro.core.process.DexProcess` — its own address space, page
tables, and stats namespace on the shared cluster.

Requests are *bounded* units of work: each covers one slot of the
working set and executes through the request adapters factored out of
the batch apps (:mod:`repro.apps.workloads`).  Every completed request
is verified against a host-side precomputed answer, so the SLO numbers
can never hide wrong results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.apps import workloads
from repro.apps.blackscholes import FIELDS, _price_arrays
from repro.apps.string_match import _count_starting_before
from repro.runtime import MemoryAllocator
from repro.runtime.array import alloc_array

from .arrivals import ArrivalCurve
from .policy import ADMIT, POLICY_NAMES, REJECT, make_policy
from .queueing import FAILED, Request, ServeQueue

WORKLOAD_KINDS = ("kmn", "grp", "blk", "scan")

#: default resident working-set size per kind (points / bytes / options)
DEFAULT_ITEMS = {"kmn": 32_768, "grp": 262_144, "blk": 65_536,
                 "scan": 262_144}
#: default request size per kind (items per query)
DEFAULT_REQUEST_ITEMS = {"kmn": 256, "grp": 4096, "blk": 512, "scan": 4096}

KMN_K = 8
WARM_CHUNK_BYTES = 64 * 1024
#: per-tenant latency-sample cap (each sample is one small tuple; the
#: registry histograms are unbounded-count / bounded-state regardless)
MAX_SAMPLES = 250_000


@dataclass(frozen=True)
class TenantSpec:
    """Static description of one tenant (everything the manager needs to
    build and drive it)."""

    name: str
    workload: str
    curve: ArrivalCurve
    nodes: Tuple[int, ...]
    workers_per_node: int = 2
    queue_capacity: int = 32
    policy: str = "reject"
    #: token-bucket sustained rate per node (0 = 1.25x the fair share of
    #: the curve's base rate)
    policy_rate_per_s: float = 0.0
    #: resident working-set items (0 = the kind's default)
    items: int = 0
    #: items per request (0 = the kind's default)
    request_items: int = 0
    slo_p99_us: float = 2_000.0
    seed: int = 0

    def __post_init__(self) -> None:
        """One ``ValueError`` naming the field, here and not mid-run."""
        for field, value, known in (("workload", self.workload, WORKLOAD_KINDS),
                                    ("policy", self.policy, POLICY_NAMES)):
            if value not in known:
                raise ValueError(f"tenant {self.name!r}: unknown {field} "
                                 f"{value!r} (one of {known})")
        if not self.nodes:
            raise ValueError(f"tenant {self.name!r}: needs at least one node")
        for field, ok, must in (
            ("workers_per_node", self.workers_per_node >= 1, "at least 1"),
            ("queue_capacity", self.queue_capacity >= 1, "at least 1"),
            ("items", self.items >= 0, "non-negative"),
            ("request_items", self.request_items >= 0, "non-negative"),
            ("slo_p99_us", 0.0 < self.slo_p99_us < math.inf,
             "positive and finite"),
            ("policy_rate_per_s", 0.0 <= self.policy_rate_per_s < math.inf,
             "non-negative and finite"),
        ):
            if not ok:
                raise ValueError(f"tenant {self.name!r}: {field} must be "
                                 f"{must}, got {getattr(self, field)!r}")
        self.curve.validate()

    @property
    def total_items(self) -> int:
        return self.items or DEFAULT_ITEMS[self.workload]

    @property
    def per_request(self) -> int:
        return self.request_items or DEFAULT_REQUEST_ITEMS[self.workload]

    @property
    def bucket_rate(self) -> float:
        """The token-bucket refill rate per node."""
        if self.policy_rate_per_s > 0.0:
            return self.policy_rate_per_s
        return 1.25 * self.curve.rate / len(self.nodes)


class Tenant:
    """Runtime state of one tenant on a shared cluster."""

    def __init__(self, spec: TenantSpec, cluster: Any, registry: Any):
        self.spec = spec
        self.cluster = cluster
        self.registry = registry
        self.proc = None
        self.policy = make_policy(
            spec.policy, rate_per_s=spec.bucket_rate
        )
        self.queues: Dict[int, ServeQueue] = {
            node: ServeQueue(cluster.engine, spec.name, node,
                             spec.queue_capacity)
            for node in spec.nodes
        }
        #: worker key -> in-flight request (the failure sweep's view)
        self.running: Dict[Tuple[int, int], Request] = {}
        #: (finish_us, latency_us) per completed request, for windowed
        #: before/during/after analysis in the report
        self.samples: List[Tuple[float, float]] = []
        self.injection_done = False
        self.stop = False
        self.dead = False
        self._expected: List[Any] = []
        self._arrays: Dict[str, Any] = {}
        # registry families shared across tenants; children per tenant
        self._latency = registry.histogram(
            "serve_latency_us", "request latency, arrival to completion",
            labelnames=("tenant",)).labels(tenant=spec.name)
        self._queue_wait = registry.histogram(
            "serve_queue_wait_us", "time from arrival to execution start",
            labelnames=("tenant",)).labels(tenant=spec.name)
        self._events = {
            status: registry.counter(
                f"serve_{status}_total", f"requests {status}, per tenant",
                labelnames=("tenant",)).labels(tenant=spec.name)
            for status in ("injected", "admitted", "rejected", "throttled",
                           "shed", "completed", "failed", "rerouted",
                           "mismatched")
        }

    # -- accounting -----------------------------------------------------

    def count(self, what: str, n: int = 1) -> None:
        self._events[what].inc(n)

    def counts(self) -> Dict[str, int]:
        return {what: c.value for what, c in self._events.items()}

    def count_decision(self, decision: Any, rerouted: bool = False) -> None:
        """Count the policy's verdict on a request; a rerouted request's
        admission is not counted again (it was when the request arrived)."""
        if decision.action == ADMIT:
            if not rerouted:
                self.count("admitted")
        elif decision.action == REJECT:
            self.count("rejected")
        else:
            self.count("throttled")
        for _ in decision.shed:
            self.count("shed")

    def fail(self, request: Request, now: float) -> None:
        """*request* ends FAILED at *now*."""
        request.status = FAILED
        request.finish_us = now
        self.count("failed")

    def accounted(self) -> int:
        """Arrivals that reached a terminal state."""
        c = self.counts()
        return (c["completed"] + c["rejected"] + c["throttled"] + c["shed"]
                + c["failed"])

    def on_complete(self, request: Request, result: Any) -> None:
        self._latency.observe(request.latency_us)
        self._queue_wait.observe(request.queue_wait_us)
        self.count("completed")
        if len(self.samples) < MAX_SAMPLES:
            self.samples.append((request.finish_us, request.latency_us))
        if not self._verify(request, result):
            self.count("mismatched")

    def live_nodes(self, chaos: Any) -> List[int]:
        """Serving nodes that are not fenced off.  Uses the same notion
        of dead the fabric itself uses (`is_fenced`: fail-stopped or
        declared failed) — migration refuses fenced destinations, so
        routing there would only burn a retry storm before failing."""
        if chaos is None:
            return list(self.spec.nodes)
        return [n for n in self.spec.nodes if not chaos.is_fenced(n)]

    # -- working set ----------------------------------------------------

    @property
    def n_slots(self) -> int:
        return max(self.spec.total_items // self.spec.per_request, 1)

    def request_span(self, rid: int) -> Tuple[int, int]:
        lo = (rid % self.n_slots) * self.spec.per_request
        return lo, min(lo + self.spec.per_request, self.spec.total_items)

    def install(self) -> None:
        """Create the tenant's process, allocate the working set, and
        write the input data (one setup simulate phase, before serving)."""
        spec = self.spec
        self.proc = self.cluster.create_process(name=f"tenant-{spec.name}")
        alloc = MemoryAllocator(self.proc)
        kind = spec.workload
        n = spec.total_items
        if kind == "kmn":
            from repro.apps import kmeans
            points = workloads.clustered_points(n, KMN_K, seed=spec.seed + 11)
            centers = points[:KMN_K].copy()
            self._arrays["points"] = alloc_array(
                alloc, np.float64, n * 3, name=f"{spec.name}.points",
                page_aligned=True)
            self._arrays["centroids"] = alloc_array(
                alloc, np.float64, KMN_K * 3, name=f"{spec.name}.centroids",
                segment="globals", page_aligned=True)
            for slot in range(self.n_slots):
                lo, hi = slot * spec.per_request, min(
                    (slot + 1) * spec.per_request, n)
                self._expected.append(
                    kmeans.sq_dist(points[lo:hi], centers).argmin(axis=1))

            def setup(ctx):
                yield from self._arrays["points"].write(ctx, 0, points.ravel())
                yield from self._arrays["centroids"].write(
                    ctx, 0, centers.ravel())

        elif kind in ("grp", "scan"):
            text = workloads.text_corpus(n, seed=spec.seed + 7,
                                         plant_every=200)
            keys = workloads.DEFAULT_KEYS
            max_key = max(len(k) for k in keys)
            self._arrays["text"] = alloc_array(
                alloc, np.uint8, n, name=f"{spec.name}.text",
                page_aligned=True)
            if kind == "scan":
                self._arrays["hits"] = alloc_array(
                    alloc, np.int64, len(keys), name=f"{spec.name}.hits",
                    segment="globals", page_aligned=True)
            for slot in range(self.n_slots):
                lo, hi = slot * spec.per_request, min(
                    (slot + 1) * spec.per_request, n)
                take = hi - lo
                window = text[lo:lo + min(take + max_key - 1, n - lo)]
                self._expected.append(
                    [_count_starting_before(window, key, take)
                     for key in keys])

            def setup(ctx):
                yield from self._arrays["text"].write(
                    ctx, 0, np.frombuffer(text, dtype=np.uint8))

        else:  # blk
            batch = workloads.option_batch(n, seed=spec.seed + 13)
            for name in FIELDS:
                self._arrays[name] = alloc_array(
                    alloc, np.float64, n, name=f"{spec.name}.{name}",
                    page_aligned=True)
            self._arrays["flags"] = alloc_array(
                alloc, np.uint8, n, name=f"{spec.name}.flags",
                page_aligned=True)
            for slot in range(self.n_slots):
                lo, hi = slot * spec.per_request, min(
                    (slot + 1) * spec.per_request, n)
                self._expected.append(_price_arrays(
                    batch.spot[lo:hi], batch.strike[lo:hi],
                    batch.rate[lo:hi], batch.volatility[lo:hi],
                    batch.maturity[lo:hi], batch.is_call[lo:hi]))

            def setup(ctx):
                for name in FIELDS:
                    yield from self._arrays[name].write(
                        ctx, 0, getattr(batch, name))
                yield from ctx.write(
                    self._arrays["flags"].addr,
                    batch.is_call.view(np.uint8))

        self.cluster.simulate(setup, self.proc)

    def warm(self, ctx) -> Any:
        """Fault the whole working set in at the calling worker's node so
        serving-time latencies measure steady state, not cold faults."""
        kind = self.spec.workload
        if kind == "kmn":
            spans = [(self._arrays["points"],
                      self.spec.total_items * 3 * 8),
                     (self._arrays["centroids"], KMN_K * 3 * 8)]
        elif kind in ("grp", "scan"):
            spans = [(self._arrays["text"], self.spec.total_items)]
        else:
            spans = [(self._arrays[name], self.spec.total_items * 8)
                     for name in FIELDS]
            spans.append((self._arrays["flags"], self.spec.total_items))
        for arr, nbytes in spans:
            pos = 0
            while pos < nbytes:
                take = min(WARM_CHUNK_BYTES, nbytes - pos)
                yield from ctx.read(arr.addr + pos, take, site="serve:warm")
                pos += take

    # -- request execution ----------------------------------------------

    def execute(self, ctx, request: Request) -> Any:
        """Run one request through the matching adapter: returns the
        adapter's generator, which the worker thread drives."""
        kind = self.spec.workload
        lo, hi = request.item_lo, request.item_hi
        if kind == "kmn":
            return workloads.kmn_query(
                ctx, self._arrays["points"], self._arrays["centroids"],
                KMN_K, lo, hi)
        if kind == "grp":
            return workloads.grp_lookup(
                ctx, self._arrays["text"], self.spec.total_items,
                workloads.DEFAULT_KEYS, lo, hi)
        if kind == "scan":
            return workloads.scan_query(
                ctx, self._arrays["text"], self.spec.total_items,
                workloads.DEFAULT_KEYS, self._arrays["hits"], lo, hi)
        return workloads.blk_price_query(
            ctx, {name: self._arrays[name] for name in FIELDS},
            self._arrays["flags"], lo, hi)

    def _verify(self, request: Request, result: Any) -> bool:
        slot = request.item_lo // self.spec.per_request
        expected = self._expected[slot]
        if self.spec.workload == "kmn":
            return bool(np.array_equal(result, expected))
        if self.spec.workload == "blk":
            return bool(np.allclose(result, expected))
        return list(result) == list(expected)

    # -- queue helpers ----------------------------------------------------

    def backlog(self) -> int:
        return sum(len(q) for q in self.queues.values())

    def depth_hwm(self) -> int:
        return max((q.depth_hwm for q in self.queues.values()), default=0)

    def release_all_waiters(self) -> None:
        for q in self.queues.values():
            q.release_waiters()
