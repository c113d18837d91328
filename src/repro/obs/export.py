"""Span exporters and offline analysis: Chrome trace-event JSON (Perfetto),
terminal timeline/top-spans reports, per-phase time attribution, and the
span-tree validator used by tests and the CLI.

Also the one place "where did the time go?" is computed: one span-name
table (``SPAN_PHASES``) maps a span to its app phase (``PHASE_NAMES``)
and to its critical-path phase (:class:`PathPhase`), and one
:func:`sweep` hands each instant to the highest-ranked open span.  The
per-thread :func:`attribution` and DexLens's per-tree critical path are
two rankings over that sweep.  The vocabularies are the single source of
truth — DexVet's ``lens-sink-discipline`` rule rejects phase labels
spelled as string literals anywhere else.
"""

from __future__ import annotations

import enum
import json
from collections import defaultdict
from operator import itemgetter
from typing import Any, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.obs.tracing import Span

# -- span-tree structure ------------------------------------------------------


def traces(spans: Sequence[Span]) -> Dict[int, List[Span]]:
    """Group spans by trace id."""
    by_trace: Dict[int, List[Span]] = defaultdict(list)
    for s in spans:
        by_trace[s.trace_id].append(s)
    return dict(by_trace)


class TreeReport:
    """Connectivity report for one trace: produced by :func:`check_trace_tree`."""

    def __init__(self, trace_id: int, spans: List[Span]):
        self.trace_id = trace_id
        self.spans = spans
        index = {s.span_id: s for s in spans}
        self.roots = [s for s in spans if s.parent_id is None]
        # broken links: a parent_id that is missing from the trace, or that
        # resolves to a span of a *different* trace (id not propagated)
        self.orphans = [
            s for s in spans
            if s.parent_id is not None and (
                s.parent_id not in index
                or index[s.parent_id].trace_id != s.trace_id
            )
        ]
        self.nodes = sorted({s.node for s in spans if s.node >= 0})

    @property
    def connected(self) -> bool:
        return len(self.roots) == 1 and not self.orphans

    def format(self) -> str:
        status = "OK" if self.connected else "BROKEN"
        detail = f"{len(self.spans)} spans, nodes {self.nodes}"
        if not self.connected:
            detail += f", {len(self.roots)} roots, {len(self.orphans)} orphans"
        return f"trace {self.trace_id}: {status} ({detail})"


def check_trace_tree(spans: Sequence[Span], trace_id: int) -> TreeReport:
    """Validate that the spans of *trace_id* form one connected tree."""
    members = [s for s in spans if s.trace_id == trace_id]
    # spans whose parent lives in another trace are members of the *broken*
    # tree too: pull in anything that claims trace_id via its own field only
    return TreeReport(trace_id, members)


def check_all_traces(spans: Sequence[Span]) -> List[TreeReport]:
    return [TreeReport(tid, members) for tid, members in sorted(traces(spans).items())]


def cross_node_traces(spans: Sequence[Span], min_nodes: int = 2) -> List[TreeReport]:
    """Connected traces whose spans touch at least *min_nodes* distinct nodes."""
    return [
        r for r in check_all_traces(spans)
        if r.connected and len(r.nodes) >= min_nodes
    ]


# -- per-phase attribution ----------------------------------------------------

PHASE_NAMES: Tuple[str, ...] = (
    "compute", "fault_wait", "futex", "migration", "delegation", "chaos",
)


class PathPhase(enum.Enum):
    """Where the microseconds of one completed span tree went — the
    critical-path categories DexLens aggregates into histograms.  Every
    consumer must reference members of this enum (``PathPhase.WIRE``),
    never re-spell the labels as string literals: the DexVet
    ``lens-sink-discipline`` rule enforces it."""

    #: posting, pool acquisition, retry backoff, and the requester-side
    #: residual (trap cost, PTE updates) — time spent waiting in line
    QUEUE = "queue"
    #: link serialization + propagation + receive completion (net.wire)
    WIRE = "wire"
    #: remote service work: rx handlers and protocol decision making
    HANDLER = "handler"
    #: blocked on someone else's copy: revocation round-trips, follower
    #: waits behind a leader, futex waits
    BLOCKED = "blocked"
    #: the application's own cycles
    COMPUTE = "compute"


#: span-name prefix -> (app phase, priority, PathPhase), a prefix before its
#: stem, first match wins; any other name is (None, 0, HANDLER).  A higher
#: priority owns a thread's overlapping time (a futex_wait nested in the
#: waiter's delegation.call is futex time).
SPAN_PHASES: Tuple[Tuple[str, Optional[str], int, PathPhase], ...] = (
    ("net.wire", None, 0, PathPhase.WIRE),
    ("net.", None, 0, PathPhase.QUEUE),
    ("rx.", None, 0, PathPhase.HANDLER),
    ("protocol.revoke", None, 0, PathPhase.BLOCKED),
    ("protocol.invalidate", None, 0, PathPhase.BLOCKED),
    ("protocol.await_forward", None, 0, PathPhase.BLOCKED),
    ("chaos.", "chaos", 6, PathPhase.HANDLER),
    ("futex.", "futex", 5, PathPhase.BLOCKED),
    ("fault.follow", "fault_wait", 4, PathPhase.BLOCKED),
    ("fault.acquire", "fault_wait", 4, PathPhase.QUEUE),
    # bare "fault": requester-side trap/PTE/backoff work
    ("fault", "fault_wait", 4, PathPhase.QUEUE),
    ("migration.", "migration", 3, PathPhase.HANDLER),
    ("delegation.", "delegation", 2, PathPhase.HANDLER),
    ("compute", "compute", 1, PathPhase.COMPUTE),
)
_UNLISTED = ("", None, 0, PathPhase.HANDLER)


def _span_phase(name: str) -> Tuple[str, Optional[str], int, PathPhase]:
    for row in SPAN_PHASES:
        if name.startswith(row[0]):
            return row
    return _UNLISTED


def path_phase_of(name: str) -> PathPhase:
    """Critical-path phase for a span name."""
    return _span_phase(name)[3]


def phase_of(name: str) -> Optional[Tuple[str, int]]:
    """``(app phase, priority)`` for a span name, or None when the span is
    not attributed to an app phase."""
    _, phase, prio, _ = _span_phase(name)
    return None if phase is None else (phase, prio)


def sweep(legs: Iterable[Tuple[float, Optional[float], Any, Hashable]]
          ) -> Dict[Hashable, float]:
    """The one attribution sweep: ``{bucket: us}`` over *legs* of
    ``(start_us, end_us, rank, bucket)``.  At every instant the open leg
    of highest rank owns the time, so nested spans are never counted
    twice.  At a tie ends sort before starts; open and zero-length legs
    are skipped.  Intervals are added in time order, and buckets appear
    in the order they first receive time."""
    events = []
    for leg, (start, end, rank, bucket) in enumerate(legs):
        if end is not None and end > start:
            events.append((start, 1, leg, rank, bucket))
            events.append((end, 0, leg, rank, bucket))
    events.sort(key=itemgetter(0, 1))
    owners: Dict[int, Tuple[Any, Hashable]] = {}
    totals: Dict[Hashable, float] = {}
    last_t = 0.0
    for t, is_start, leg, rank, bucket in events:
        if owners and t > last_t:
            owner = max(owners.values(), key=itemgetter(0))[1]
            totals[owner] = totals.get(owner, 0.0) + (t - last_t)
        if is_start:
            owners[leg] = (rank, bucket)
        else:
            del owners[leg]
        last_t = t
    return totals


def attribution(spans: Sequence[Span]) -> Dict[int, Dict[str, float]]:
    """Per-thread wall-time attribution: ``{tid: {phase: us}}``, every
    phase of ``PHASE_NAMES`` present — :func:`sweep` over each thread's
    closed app-phase spans, ranked by priority."""
    by_tid: Dict[int, List[Tuple[float, float, int, str]]] = defaultdict(list)
    for s in spans:
        if s.tid < 0 or s.end_us is None:
            continue
        _, phase, prio, _ = _span_phase(s.name)
        if phase is not None:
            by_tid[s.tid].append((s.start_us, s.end_us, prio, phase))
    out: Dict[int, Dict[str, float]] = {}
    for tid, legs in by_tid.items():
        got = sweep(legs)
        out[tid] = {p: got.get(p, 0.0) for p in PHASE_NAMES}
    return out


def phase_totals(spans: Sequence[Span]) -> Dict[str, float]:
    totals: Dict[str, float] = {p: 0.0 for p in PHASE_NAMES}
    for per_phase in attribution(spans).values():
        for phase, us in per_phase.items():
            totals[phase] += us
    return totals


def render_attribution(spans: Sequence[Span]) -> str:
    per_tid = attribution(spans)
    lines = ["per-phase time attribution (us, per thread):"]
    header = f"  {'tid':>4}  " + "".join(f"{p:>12}" for p in PHASE_NAMES) + f"{'total':>12}"
    lines.append(header)
    for tid in sorted(per_tid):
        row = per_tid[tid]
        total = sum(row.values())
        lines.append(
            f"  {tid:>4}  "
            + "".join(f"{row[p]:>12.1f}" for p in PHASE_NAMES)
            + f"{total:>12.1f}"
        )
    totals = phase_totals(spans)
    lines.append(
        f"  {'all':>4}  "
        + "".join(f"{totals[p]:>12.1f}" for p in PHASE_NAMES)
        + f"{sum(totals.values()):>12.1f}"
    )
    return "\n".join(lines)


# -- terminal reports ---------------------------------------------------------


def render_top_spans(spans: Sequence[Span], top_n: int = 15) -> str:
    """Aggregate spans by name: count, total, mean, max."""
    agg: Dict[str, List[float]] = defaultdict(list)
    for s in spans:
        if s.end_us is not None:
            agg[s.name].append(s.duration_us)
    rows = sorted(agg.items(), key=lambda kv: -sum(kv[1]))[:top_n]
    lines = [
        f"top spans by total time ({len(spans)} spans, {len(agg)} kinds):",
        f"  {'name':<26}{'count':>8}{'total us':>14}{'mean us':>12}{'max us':>12}",
    ]
    for name, durs in rows:
        lines.append(
            f"  {name:<26}{len(durs):>8}{sum(durs):>14.1f}"
            f"{sum(durs) / len(durs):>12.2f}{max(durs):>12.2f}"
        )
    return "\n".join(lines)


def render_timeline(spans: Sequence[Span], limit: int = 40) -> str:
    """Indented textual timeline of the largest cross-node trace (or the
    largest trace overall when nothing crosses nodes)."""
    reports = cross_node_traces(spans) or check_all_traces(spans)
    if not reports:
        return "timeline: no spans"
    best = max(reports, key=lambda r: (len(r.nodes), len(r.spans)))
    members = sorted(best.spans, key=lambda s: (s.start_us, s.span_id))
    index = {s.span_id: s for s in members}

    def depth(s: Span) -> int:
        d = 0
        while s.parent_id is not None and s.parent_id in index:
            s = index[s.parent_id]
            d += 1
        return d

    lines = [f"timeline for {best.format()}"]
    for s in members[:limit]:
        pad = "  " * depth(s)
        lines.append(
            f"  {s.start_us:>10.1f}us {pad}{s.name} [{s.duration_us:.1f}us]"
            f" node={s.node}" + (f" tid={s.tid}" if s.tid >= 0 else "")
        )
    if len(members) > limit:
        lines.append(f"  ... {len(members) - limit} more spans")
    return "\n".join(lines)


# -- Chrome trace-event JSON (Perfetto) ---------------------------------------


def _allocate_lanes(spans: Sequence[Span], index: Dict[int, Span]) -> Dict[int, int]:
    """Chrome ``tid`` lane per span.  App-thread spans use their own tid;
    service spans (tid < 0) inherit their same-node ancestor's lane, else get
    a per-node lane >= 1000 allocated greedily so concurrent service work on
    one node lands on separate rows."""
    lanes: Dict[int, int] = {}
    # service roots: tid < 0 and no same-node parent to inherit from
    service_roots: List[Span] = []
    for s in spans:
        if s.tid >= 0:
            lanes[s.span_id] = s.tid
            continue
        parent = index.get(s.parent_id) if s.parent_id is not None else None
        if parent is None or parent.node != s.node:
            service_roots.append(s)

    free: Dict[int, List[Tuple[float, int]]] = defaultdict(list)  # node -> [(busy_until, lane)]
    for s in sorted(service_roots, key=lambda s: (s.start_us, s.span_id)):
        end = s.end_us if s.end_us is not None else s.start_us
        pool = free[s.node]
        for i, (busy_until, lane) in enumerate(pool):
            if busy_until <= s.start_us:
                pool[i] = (end, lane)
                lanes[s.span_id] = lane
                break
        else:
            lane = 1000 + len(pool)
            pool.append((end, lane))
            lanes[s.span_id] = lane

    # remaining service spans inherit lanes down the tree (same node)
    def lane_of(s: Span) -> int:
        got = lanes.get(s.span_id)
        if got is not None:
            return got
        parent = index.get(s.parent_id) if s.parent_id is not None else None
        if parent is not None and parent.node == s.node:
            lane = lane_of(parent)
        else:  # pragma: no cover - service roots already allocated
            lane = 1999
        lanes[s.span_id] = lane
        return lane

    for s in spans:
        lane_of(s)
    return lanes


def chrome_trace(
    spans: Sequence[Span],
    *,
    dropped: int = 0,
    counters: Optional[Sequence[Dict[str, Any]]] = None,
) -> Dict[str, Any]:
    """Build a Chrome trace-event JSON document (load at ui.perfetto.dev).

    One process track per node (pid = node id, ``tid`` lanes inside it: app
    threads on their tid rows, protocol/fabric service work on rows >= 1000),
    timestamps in simulated microseconds, and flow (s/f) arrows stitching
    parent→child edges that cross nodes.

    *counters* appends pre-built counter-track events (``"ph": "C"`` plus
    any metadata they need) after the slice events — the DexScope
    utilization series render as Perfetto counter tracks alongside the
    span timeline (see :meth:`repro.obs.scope.DexScope.counter_events`)."""
    index = {s.span_id: s for s in spans}
    lanes = _allocate_lanes(spans, index)
    events: List[Dict[str, Any]] = []

    nodes = sorted({s.node for s in spans if s.node >= 0})
    for node in nodes:
        events.append({
            "name": "process_name", "ph": "M", "pid": node, "tid": 0,
            "args": {"name": f"node {node}"},
        })
        events.append({
            "name": "process_sort_index", "ph": "M", "pid": node, "tid": 0,
            "args": {"sort_index": node},
        })

    for s in spans:
        end = s.end_us if s.end_us is not None else s.start_us
        lane = lanes[s.span_id]
        args = {"trace": s.trace_id, "span": s.span_id}
        args.update(s.attrs)
        events.append({
            "name": s.name,
            "cat": _span_phase(s.name)[1] or "protocol",
            "ph": "X",
            "pid": s.node if s.node >= 0 else (nodes[0] if nodes else 0),
            "tid": lane,
            "ts": s.start_us,
            "dur": max(end - s.start_us, 0.0),
            "args": args,
        })
        parent = index.get(s.parent_id) if s.parent_id is not None else None
        if parent is not None and parent.node != s.node:
            # flow arrow from inside the parent slice to the child's start
            parent_end = parent.end_us if parent.end_us is not None else parent.start_us
            ts_out = min(max(s.start_us, parent.start_us), parent_end)
            events.append({
                "name": "msg", "cat": "flow", "ph": "s", "id": s.span_id,
                "pid": parent.node, "tid": lanes[parent.span_id], "ts": ts_out,
            })
            events.append({
                "name": "msg", "cat": "flow", "ph": "f", "bp": "e", "id": s.span_id,
                "pid": s.node, "tid": lane, "ts": s.start_us,
            })

    other: Dict[str, Any] = {
        "source": "repro.obs (DexTrace)", "spans_dropped": dropped,
    }
    if counters:
        events.extend(counters)
        other["counter_events"] = len(counters)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def write_chrome_trace(
    path: str,
    spans: Sequence[Span],
    *,
    dropped: int = 0,
    counters: Optional[Sequence[Dict[str, Any]]] = None,
) -> int:
    doc = chrome_trace(spans, dropped=dropped, counters=counters)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return len(doc["traceEvents"])
