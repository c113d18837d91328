"""Every latency and bandwidth constant of the simulated rack, in one place.

The defaults model the paper's testbed (§V): eight nodes with 8-core Xeon
Silver 4110 processors, 48 GB RAM each, connected by 56 Gbps InfiniBand
(ConnectX-4 + SX6012 switch).  Times are **microseconds**, bandwidths are
**bytes per microsecond** (1 byte/us = 1 MB/s).

Constants marked *calibrated* were tuned so that the microbenchmarks of
§V-D land near the paper's measurements:

* retrieving a 4 KB page through the messaging layer: **13.6 us**
* fast-path page-fault handling: **19.3 us**
* contended fault handling with retry: **~158.8 us**
* first forward migration: **812.1 us** (12.1 origin + 800.0 remote, of
  which ~620 us is remote-worker setup); second forward: **236.6 us**;
  backward: **~24.7 us**.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Dict, NamedTuple, Optional

KB = 1024
MB = 1024 * KB
GB = 1024 * MB

#: the page-data transfer disciplines (cost models in repro.net.rdma)
PAGE_TRANSFER_MODES = ("rdma_sink", "verb", "rdma_register")
#: the coherence-directory backends (repro.core.directory)
DIRECTORY_BACKENDS = ("origin", "sharded")


@dataclass
class SimParams:
    """Tunable model of the rack; pass to :class:`repro.core.DexCluster`."""

    # ---- node hardware --------------------------------------------------
    cores_per_node: int = 8
    #: sustained per-node DRAM bandwidth (bytes/us); ~12 GB/s per socket
    dram_bandwidth: float = 12_000.0
    #: last-level cache per node (Xeon Silver 4110: 11 MB)
    llc_bytes: int = 11 * MB
    #: DRAM throughput degradation: aggregate capacity multiplier once more
    #: than `dram_knee` streams are active (row-buffer conflicts under many
    #: random-access streams).  1.0 disables the effect.
    dram_contention_factor: float = 0.85
    dram_knee: int = 4

    # ---- interconnect (InfiniBand RC, §III-E) ---------------------------
    #: 56 Gbps link = 7 GB/s = 7000 bytes/us
    link_bandwidth: float = 7_000.0
    #: one-way propagation + switch latency for any message
    wire_latency: float = 2.0
    #: CPU cost to post a send work request to a pre-mapped buffer
    verb_send_overhead: float = 0.8
    #: CPU cost to reap a completion and dispatch the handler
    verb_recv_overhead: float = 1.0
    #: DMA-mapping a buffer that is NOT from a pre-registered pool (the
    #: cost the send/receive buffer pools exist to avoid)
    dma_map_cost: float = 4.0
    #: posting an RDMA write (buffer already in a registered region)
    rdma_post_cost: float = 1.5
    #: RDMA completion-path cost at the requester
    rdma_completion_cost: float = 1.5
    #: registering a fresh RDMA memory region (the cost the RDMA sink
    #: avoids; used by the per-page-registration ablation)
    rdma_register_cost: float = 25.0
    #: local memcpy bandwidth (sink -> final frame), ~20 GB/s
    memcpy_bandwidth: float = 20_000.0
    #: chunks per connection in each buffer pool
    send_pool_chunks: int = 64
    recv_pool_chunks: int = 64
    rdma_sink_chunks: int = 32
    #: payload bytes per pool chunk (control messages are tens of bytes)
    pool_chunk_bytes: int = 256
    #: bytes per RDMA sink slot (one page)
    rdma_sink_slot_bytes: int = 4096

    # ---- virtual memory subsystem ---------------------------------------
    page_size: int = 4096
    #: hardware trap + kernel fault-path entry
    fault_trap_cost: float = 2.0
    #: taking the PTE spinlock + writing the PTE
    pte_update_cost: float = 1.0
    #: allocating a physical page at the remote
    page_alloc_cost: float = 0.8
    #: origin-side ownership lookup/update in the radix tree (calibrated)
    protocol_handler_cost: float = 2.5
    #: applying an ownership-revocation (invalidation) at an owner node
    invalidation_handler_cost: float = 0.8
    #: back-off before retrying a fault that lost an ownership race
    #: (calibrated so contended faults average ~158.8us, ~8x the fast path)
    fault_retry_backoff: float = 130.0
    #: consulting the per-process hash table of in-flight faults
    fault_coalesce_lookup_cost: float = 0.4

    # ---- thread migration (§III-A, calibrated to Table II / Fig. 3) -----
    #: collecting pt_regs + mm state at the source of a migration
    context_collect_cost: float = 6.6
    #: origin-side per-process bookkeeping, first migration only
    origin_process_setup_cost: float = 5.5
    #: origin-side cost for subsequent migrations
    origin_resume_cost: float = 0.0
    #: creating the per-process remote worker + address-space skeleton at a
    #: node seeing this process for the first time (dominates 1st migration)
    remote_worker_setup_cost: float = 620.0
    #: waking the sleeping remote worker to service a later migration (the
    #: first migration creates worker and thread together, so skips this)
    worker_wake_cost: float = 50.0
    #: forking a remote thread from the remote worker (CLONE_THREAD)
    remote_thread_fork_cost: float = 130.0
    #: installing the received execution context into the new thread
    remote_context_restore_cost: float = 38.0
    #: run-queue enqueue + first dispatch of the new thread
    remote_sched_cost: float = 12.0
    #: backward migration: updating the original thread's context
    backward_update_cost: float = 14.5

    # ---- work delegation & futex (§III-A) --------------------------------
    #: waking the sleeping original thread and dispatching a request
    delegation_dispatch_cost: float = 1.0
    #: one futex_wait/futex_wake operation executed at the origin
    futex_op_cost: float = 0.6
    #: VMA lookup / update at either side of on-demand VMA sync
    vma_op_cost: float = 0.7

    # ---- coherence-directory layer (see repro.core.directory) -----------
    #: metadata placement backend: "origin" (the paper's §III-B design,
    #: every page's home is the origin) or "sharded" (home-node directory,
    #: VPNs hash across per-node shards)
    directory: str = "origin"
    #: number of shards for the sharded backend; None = smallest prime
    #: above the node count (a power-of-two count resonates with the
    #: power-of-two-aligned segment bases and pins hot pages to node 0)
    directory_shards: Optional[int] = None
    #: capacity of each node's owner-hint LRU (vpn -> last-known home)
    owner_hint_capacity: int = 1024
    #: origin-side shard-map lookup answering a PAGE_HOME_LOOKUP
    home_lookup_cost: float = 1.2

    # ---- correctness checking (see repro.check) --------------------------
    #: dynamic-checker selection: "" off, "race" (coherence sanitizer),
    #: "deadlock" (wait-for detector), "1"/"all" for both.  None defers to
    #: the DEX_SANITIZE environment variable (how CI turns it on without
    #: touching every SimParams construction).
    sanitize: Optional[str] = None

    # ---- fault injection & recovery (see repro.chaos) --------------------
    #: chaos selection: "" off, "1"/"on" on (empty scenario unless
    #: `chaos_scenario` is set), or a path to a scenario JSON file.  None
    #: defers to the DEX_CHAOS environment variable; when off no controller
    #: exists, the transport keeps its untimed request path, and sim time
    #: is bit-identical to a build without the subsystem
    chaos: Optional[str] = None
    #: programmatic scenario (a repro.chaos.ChaosScenario); takes precedence
    #: over a scenario file named by `chaos`
    chaos_scenario: Optional[object] = field(default=None, repr=False, compare=False)
    #: master seed for the engine-owned RNG.  None keeps each app's
    #: calibrated default workload seed; setting it pins every stochastic
    #: choice (chaos schedules, workload init) to one number
    seed: Optional[int] = None
    #: reply timeout before the first retransmission, per message class
    #: (see repro.net.messages.TIMEOUT_CLASSES): "ctl" covers small
    #: control round-trips, "data" covers replies that may carry a page or
    #: wait out an in-flight install, "heavy" covers migration/delegation
    retry_timeout_ctl_us: float = 80.0
    retry_timeout_data_us: float = 400.0
    retry_timeout_heavy_us: float = 2_500.0
    #: consecutive unanswered retransmissions before the peer is declared
    #: unreachable (a duplicate-ack from a live peer resets the count)
    retry_max_attempts: int = 6
    #: ceiling of the exponential retransmission backoff
    retry_backoff_cap_us: float = 5_000.0
    #: remote worker -> origin keepalive period
    lease_interval_us: float = 150.0
    #: renewal silence after which the origin declares a node failed
    lease_timeout_us: float = 600.0
    #: origin-side failure-detector polling period
    lease_check_us: float = 150.0

    # ---- observability (see repro.obs) -----------------------------------
    #: causal span tracing: "" off, "1"/"spans" on.  None defers to the
    #: DEX_TRACE environment variable (same scheme as `sanitize`); when off
    #: no tracer exists and instrumented paths reduce to a None check
    trace: Optional[str] = None

    # ---- online analytics (see repro.obs.lens — DexLens) ------------------
    #: streaming trace analytics: "" off, "1"/"on" on.  None defers to the
    #: DEX_LENS environment variable.  Turning the lens on implies a tracer
    #: (it listens for span closes); with it off no lens object exists and
    #: nothing beyond the tracer's empty span-close list is ever touched
    lens: Optional[str] = None
    #: sliding sim-time window for the heat statistics (fault rate, owner
    #: churn, ping-pong pairs)
    lens_window_us: float = 5_000.0
    #: crash-dump path for the flight recorder ("" disables auto-dump;
    #: None means the default ./dex-flightrec.json)
    lens_dump_path: Optional[str] = None

    # ---- time-series telemetry (see repro.obs.scope — DexScope) -----------
    #: periodic utilization sampling: "" off, "1"/"on" on.  None defers to
    #: the DEX_SCOPE environment variable.  When off no sampler exists and
    #: the engine's only obligation is one float compare against +inf per
    #: dispatch, the fabric's one truth test of its empty `wire` list
    scope: Optional[str] = None

    # ---- feature switches (for ablations) ---------------------------------
    #: leader-follower coalescing of concurrent same-page faults (§III-C)
    enable_fault_coalescing: bool = True
    #: skip page-data transfer when the requester holds an up-to-date copy
    enable_transfer_skip: bool = True
    #: page-data transfer mode: "rdma_sink" (the paper's hybrid), "verb"
    #: (send 4KB through the verb path), or "rdma_register" (register a
    #: region per page -- the strawman §III-E rules out)
    page_transfer_mode: str = "rdma_sink"

    def __post_init__(self) -> None:
        """One ``ValueError`` naming the field, here and not mid-run."""
        for name, known in (("page_transfer_mode", PAGE_TRANSFER_MODES),
                            ("directory", DIRECTORY_BACKENDS)):
            if getattr(self, name) not in known:
                raise ValueError(
                    f"unknown {name} {getattr(self, name)!r}; "
                    f"expected one of {', '.join(map(repr, known))}"
                )
        for names, ok, bound in _BOUNDS:
            for name in names:
                value = getattr(self, name)
                if value is not None and not (math.isfinite(value) and ok(value)):
                    must = bound if math.isfinite(value) else "finite"
                    raise ValueError(f"{name} must be {must}, got {value!r}")
        if self.lease_timeout_us <= self.lease_interval_us:
            raise ValueError(
                f"lease_timeout_us must exceed lease_interval_us "
                f"({self.lease_interval_us!r}), got {self.lease_timeout_us!r}"
            )

    def dram_contention_model(self) -> Callable[[int], float]:
        """Effective aggregate DRAM capacity as a function of active streams."""
        cap, knee, factor = self.dram_bandwidth, self.dram_knee, self.dram_contention_factor

        def model(n: int) -> float:
            if n <= knee or factor >= 1.0:
                return cap
            # geometric decay per extra stream beyond the knee, floored
            return max(cap * (factor ** (n - knee)), cap * 0.4)

        return model

    def copy(self, **overrides) -> "SimParams":
        """A modified copy; keyword names are field names."""
        return replace(self, **overrides)


def _named(*suffixes: str, also: tuple = ()) -> tuple:
    return tuple(
        f.name for f in fields(SimParams) if f.name.endswith(suffixes)) + also


#: (fields, test, what the ValueError says the field must be, besides
#: finite); the first group is what model code yields as a delay
_BOUNDS = (
    (_named("_cost", "_overhead", "_latency", "_backoff", "_us"),
     lambda v: v >= 0, "non-negative"),
    (_named("_bandwidth", also=("page_size", "cores_per_node")),
     lambda v: v > 0, "positive"),
    (_named("_chunks", also=("directory_shards", "retry_max_attempts")),
     lambda v: v >= 1, "at least 1"),
)

DEFAULT_PARAMS = SimParams()


# ---- instrumentation switches ---------------------------------------------
# The five ``SimParams`` string switches share one grammar: ``None`` defers
# to the switch's environment variable (how CI turns a checker on without
# touching every SimParams construction), an off-spelling resolves to
# ``""``, an on-spelling to the switch's canonical mode.  This module is
# the only one in ``repro`` that reads the environment.

_OFF = frozenset({"", "0", "off", "none", "false", "no"})
_YES = ("1", "on", "true", "yes")


class _Switch(NamedTuple):
    env: str
    #: accepted on-spelling -> canonical mode
    modes: Dict[str, str]
    #: the "expected one of ..." tail of the ValueError for unknown text;
    #: None = unknown text is a file path, returned verbatim
    expected: Optional[str]


SWITCHES: Dict[str, _Switch] = {
    "sanitize": _Switch(
        "DEX_SANITIZE",
        {**dict.fromkeys(_YES + ("all",), "all"),
         "race": "race", "deadlock": "deadlock"},
        "'', '1'/'all', 'race', 'deadlock'",
    ),
    "trace": _Switch(
        "DEX_TRACE",
        dict.fromkeys(_YES + ("all", "spans"), "spans"),
        "'', '1'/'on'/'spans'",
    ),
    "lens": _Switch(
        "DEX_LENS", dict.fromkeys(_YES + ("all",), "on"), "'', '1'/'on'"
    ),
    "scope": _Switch(
        "DEX_SCOPE", dict.fromkeys(_YES + ("all",), "on"), "'', '1'/'on'"
    ),
    "chaos": _Switch("DEX_CHAOS", dict.fromkeys(_YES, "on"), None),
}


def resolve_switch(name: str, setting: Optional[str]) -> str:
    """Normalize the ``SimParams`` switch *name* (a key of ``SWITCHES``)
    from its field value *setting*: ``""`` when off, else the canonical
    mode (``sanitize``: ``"all"``/``"race"``/``"deadlock"``; ``trace``:
    ``"spans"``; ``lens``/``scope``: ``"on"``; ``chaos``: ``"on"`` or a
    scenario-file path)."""
    switch = SWITCHES[name]
    if setting is None:
        setting = os.environ.get(switch.env, "")
    text = str(setting).strip()
    mode = text.lower()
    if mode in _OFF:
        return ""
    if mode in switch.modes:
        return switch.modes[mode]
    if switch.expected is None:
        return text
    raise ValueError(
        f"unknown {name} mode {setting!r}; expected one of {switch.expected}"
    )
