"""DexServe tenants: one named workload per DeX process.

A tenant bundles a workload kind (KMN model queries, GRP lookups, BLK
pricing calls, string-match scans), an arrival curve, a set of serving
nodes with a bounded worker pool per node (the bulkhead), an admission
policy, and a resident working set allocated in its own
:class:`~repro.core.process.DexProcess` — its own address space, page
tables, and stats namespace on the shared cluster.

Requests are *bounded* units of work: each covers one slot of the
working set and executes through its kind's request body
(:mod:`repro.serve.kinds`, which owns everything that differs between
kinds; nothing here branches on one).  Every completed request is
verified against a host-side precomputed answer, so the SLO numbers can
never hide wrong results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.runtime import MemoryAllocator
from repro.runtime.array import alloc_array

from .arrivals import ArrivalCurve
from .kinds import KINDS, Kind
from .policy import POLICIES
from .queueing import FAILED, QUEUED, Request, ServeQueue

WARM_CHUNK_BYTES = 64 * 1024
#: per-tenant latency-sample cap (each sample is one small tuple; the
#: registry histograms are unbounded-count / bounded-state regardless)
MAX_SAMPLES = 250_000
#: the counters of a request's end states
TERMINAL = ("completed", "rejected", "throttled", "shed", "failed")


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
        for field, value, known in (("workload", self.workload, tuple(KINDS)),
                                    ("policy", self.policy, tuple(POLICIES))):
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
    def kind(self) -> Kind:
        return KINDS[self.workload]

    @property
    def total_items(self) -> int:
        return self.items or self.kind.items

    @property
    def per_request(self) -> int:
        return self.request_items or self.kind.request_items

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
        self.proc = None
        self.policy = POLICIES[spec.policy](spec.bucket_rate)
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
        #: completions within the SLO (all: ``samples`` stops at MAX_SAMPLES)
        self.within_slo = 0
        self.injection_done = False
        self.stop = False
        self.dead = False
        self._expected: List[Any] = []
        self._arrays: Dict[str, Any] = {}
        self._warm: List[Any] = []
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

    def count_decision(self, request: Request, shed: Tuple[Request, ...],
                       rerouted: bool = False) -> None:
        """Count the policy's verdict on *request* from the statuses it
        left: QUEUED is an admission, REJECTED / THROTTLED and each SHED
        victim count under their own names.  A rerouted request's
        admission is not counted again (it was when the request arrived)."""
        if request.status != QUEUED:
            self.count(request.status)
        elif not rerouted:
            self.count("admitted")
        for victim in shed:
            self.count(victim.status)

    def fail(self, request: Request, now: float) -> None:
        """*request* ends FAILED at *now*."""
        request.status = FAILED
        request.finish_us = now
        self.count("failed")

    def accounted(self) -> int:
        """Arrivals that reached a terminal state."""
        return sum(self._events[what].value for what in TERMINAL)

    def on_complete(self, request: Request, result: Any) -> None:
        self._latency.observe(request.latency_us)
        self._queue_wait.observe(request.queue_wait_us)
        self.count("completed")
        if request.latency_us <= self.spec.slo_p99_us:
            self.within_slo += 1
        if len(self.samples) < MAX_SAMPLES:
            self.samples.append((request.finish_us, request.latency_us))
        slot = request.item_lo // self.spec.per_request
        if not self.spec.kind.check(result, self._expected[slot]):
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
        spec, kind = self.spec, self.spec.kind
        self.proc = self.cluster.create_process(name=f"tenant-{spec.name}")
        alloc = MemoryAllocator(self.proc)
        inputs = kind.inputs(spec.total_items, spec.seed)
        residents = kind.residents(inputs)
        for r in residents:
            self._arrays[r.name] = alloc_array(
                alloc, r.dtype, r.length, name=f"{spec.name}.{r.name}",
                segment=r.segment, page_aligned=True)
        self._warm = [self._arrays[r.name] for r in residents if r.warm]
        self._expected = [kind.reference(inputs, *self.request_span(slot))
                          for slot in range(self.n_slots)]

        def setup(ctx):
            for r in residents:
                if r.values is not None:
                    yield from self._arrays[r.name].write(ctx, 0, r.values)

        self.cluster.simulate(setup, self.proc)

    def warm(self, ctx) -> Any:
        """Fault the warm arrays in at the calling worker's node so
        serving-time latencies measure steady state, not cold faults."""
        for arr in self._warm:
            for pos in range(0, arr.nbytes, WARM_CHUNK_BYTES):
                take = min(WARM_CHUNK_BYTES, arr.nbytes - pos)
                yield from ctx.read(arr.addr + pos, take, site="serve:warm")

    # -- request execution ----------------------------------------------

    def execute(self, ctx, request: Request) -> Any:
        """The request's body: a generator the worker thread drives."""
        return self.spec.kind.query(ctx, self._arrays, request.item_lo,
                                    request.item_hi)

    # -- queue helpers ----------------------------------------------------

    def backlog(self) -> int:
        return sum(len(q) for q in self.queues.values())

    def depth_hwm(self) -> int:
        return max((q.depth_hwm for q in self.queues.values()), default=0)

    def release_all_waiters(self) -> None:
        for q in self.queues.values():
            q.release_waiters()
