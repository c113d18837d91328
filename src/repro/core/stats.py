"""Counters and logs collected by a running DeX process.

Everything the evaluation section reports is derived from these:
per-fault latencies (the bimodal distribution of §V-D), migration breakdowns
(Table II / Figure 3), protocol message counts, transfer-skip hits, and the
coherence-directory layer's routing counters (home-lookup traffic and the
hit rate of the nodes' shard-map copies under the sharded backend).

:class:`DexStats` is a typed facade over a
:class:`repro.obs.metrics.MetricsRegistry`: the scalar counters read/write
registry :class:`Counter` objects through attribute properties (so
``stats.faults_write += 1`` still works everywhere), the per-home and
per-page dicts are label families, and fault latencies feed bounded
log-bucket histograms (one per §V-D mode) so long runs cannot grow memory
without bound — the retained :class:`FaultRecord` list is capped, but the
histograms see **every** sample, so means/counts stay exact past the cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import Histogram, MetricsRegistry


@dataclass
class MigrationRecord:
    """One thread migration, with the per-side costs Table II reports and
    the remote-side component breakdown Figure 3 plots."""

    tid: int
    src: int
    dst: int
    kind: str  # "forward" | "backward"
    first_on_node: bool
    start_us: float
    end_us: float
    origin_us: float = 0.0
    remote_us: float = 0.0
    components: Dict[str, float] = field(default_factory=dict)

    @property
    def total_us(self) -> float:
        return self.end_us - self.start_us


@dataclass
class FaultRecord:
    """Latency sample for one completed page fault."""

    vpn: int
    node: int
    write: bool
    latency_us: float
    retries: int
    coalesced: bool  # resolved as a follower


#: the scalar counters of the facade, with their registry help strings
_COUNTERS: Tuple[Tuple[str, str], ...] = (
    ("faults_read", "read page faults"),
    ("faults_write", "write page faults"),
    ("faults_coalesced", "faults resolved as a follower (§III-C)"),
    ("fault_retries", "busy-retry round trips across all faults"),
    ("pages_transferred", "page payloads that crossed the wire"),
    ("pages_forwarded", "of those, pages an old writer sent its successor"),
    ("transfers_skipped", "grants that skipped the data transfer"),
    ("invalidations_sent", "ownership revocations sent to remote owners"),
    ("home_revocations", "ownership revocations of the home's own copy"),
    ("vma_queries", "on-demand VMA sync queries (§III-D)"),
    ("vma_shrink_broadcasts", "eager VMA shrink broadcasts"),
    ("delegations", "operations delegated to the origin (§III-A)"),
    ("futex_waits", "futex_wait operations at the origin"),
    ("futex_wakes", "futex_wake operations at the origin"),
    ("hint_hits", "remote homes resolved from the node's shard-map copy"),
    ("hint_misses", "remote homes resolved with no shard-map copy"),
    ("home_lookups", "shard-map lookups through the origin"),
)

#: §V-D latency modes, keyed by how the fault resolved
_MODE_FAST = "fast"
_MODE_CONTENDED = "contended"
_MODE_COALESCED = "coalesced"


class DexStats:
    """Aggregated per-process statistics (facade over a metrics registry)."""

    def __init__(self, max_latency_samples: int = 500_000) -> None:
        reg = self.registry = MetricsRegistry()
        self._counters: Dict[str, object] = {
            name: reg.counter(name, help) for name, help in _COUNTERS
        }
        #: ownership requests served per directory-hosting node (who carries
        #: the metadata load — all-origin under the origin backend)
        self._directory_requests = reg.counter(
            "directory_requests",
            "ownership requests served, by directory-hosting node",
            labelnames=("home",),
        )
        #: busy-retries per page (how often each page made a requester back
        #: off), feeding the contended_pages top-N of latency_summary()
        self._busy_retries = reg.counter(
            "busy_retries",
            "busy-retry backoffs, by faulting page",
            labelnames=("vpn",),
        )
        #: fault latency, split by §V-D mode; sees every sample regardless
        #: of the retained-record cap (sub-µs start, ~sqrt(2) buckets)
        self.fault_latency: Histogram = reg.histogram(
            "fault_latency_us",
            "page-fault latency by §V-D mode",
            labelnames=("mode",),
        )
        self.migrations: List[MigrationRecord] = []
        self.fault_latencies: List[FaultRecord] = []
        #: cap on retained per-fault records; histograms keep counting past it
        self.max_latency_samples = max_latency_samples
        #: fault records not retained because the cap was hit
        self.latency_samples_dropped = 0

    # -- derived -----------------------------------------------------------

    @property
    def total_faults(self) -> int:
        return self.faults_read + self.faults_write

    @property
    def hint_hit_rate(self) -> Optional[float]:
        """Share of remote home resolutions the node's shard-map copy
        answered, or None when none ever ran (single node, or the origin
        backend)."""
        total = self.hint_hits + self.hint_misses
        if total == 0:
            return None
        return self.hint_hits / total

    @property
    def directory_requests(self) -> Dict[int, int]:
        """Per-home served-request counts, as a plain dict view."""
        return self._directory_requests.value_by_label()

    @property
    def busy_retries_by_page(self) -> Dict[int, int]:
        """Per-page busy-retry counts, as a plain dict view."""
        return self._busy_retries.value_by_label()

    # -- recording ----------------------------------------------------------

    def record_fault(self, record: FaultRecord) -> None:
        if record.write:
            self.faults_write += 1
        else:
            self.faults_read += 1
        if record.coalesced:
            self.faults_coalesced += 1
            mode = _MODE_COALESCED
        elif record.retries > 0:
            mode = _MODE_CONTENDED
        else:
            mode = _MODE_FAST
        self.fault_retries += record.retries
        self.fault_latency.labels(mode=mode).observe(record.latency_us)
        if len(self.fault_latencies) < self.max_latency_samples:
            self.fault_latencies.append(record)
        else:
            self.latency_samples_dropped += 1

    def record_busy_retry(self, vpn: int) -> None:
        self._busy_retries.labels(vpn=vpn).inc()

    def record_directory_request(self, home: int) -> None:
        self._directory_requests.labels(home=home).inc()

    # -- reporting -----------------------------------------------------------

    def contended_pages(self, top_n: int = 5) -> List[Tuple[int, int]]:
        """The *top_n* pages by busy-retry count, worst first — which pages
        the §V-D contended mode is attributable to."""
        ranked = sorted(
            self.busy_retries_by_page.items(), key=lambda kv: (-kv[1], kv[0])
        )
        return ranked[:top_n]

    def fault_latency_percentile(self, p: float, mode: Optional[str] = None) -> float:
        """Approximate fault-latency percentile (bucket resolution), over
        all modes or one of ``"fast"``/``"contended"``/``"coalesced"``."""
        hist = self.fault_latency if mode is None else self.fault_latency.labels(mode=mode)
        return hist.percentile(p)

    def latency_summary(self, top_n: int = 5) -> Dict[str, object]:
        """Mean fault latency split by contended (retried) vs fast-path —
        the two modes of the §V-D distribution — plus the pages that caused
        the contention.  Computed from the histograms, so the means and
        counts cover every fault even past the retained-record cap."""
        fast = self.fault_latency.labels(mode=_MODE_FAST)
        slow = self.fault_latency.labels(mode=_MODE_CONTENDED)
        out: Dict[str, object] = {}
        if fast.count:
            out["fast_path_mean_us"] = fast.mean
            out["fast_path_count"] = float(fast.count)
        if slow.count:
            out["contended_mean_us"] = slow.mean
            out["contended_count"] = float(slow.count)
        contended = self.contended_pages(top_n)
        if contended:
            out["contended_pages"] = contended
        return out

    def report(self) -> str:
        """Text dump of every non-zero metric (single snapshot path)."""
        return self.registry.report()


def _counter_property(name: str) -> property:
    def _get(self: DexStats) -> int:
        return self._counters[name].value

    def _set(self: DexStats, value: int) -> None:
        self._counters[name].value = value

    return property(_get, _set)


# attribute-style access to the scalar counters: `stats.faults_write += 1`
# reads and writes the underlying registry Counter
for _name, _help in _COUNTERS:
    setattr(DexStats, _name, _counter_property(_name))
del _name, _help
