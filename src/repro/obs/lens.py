"""DexLens: online, bounded-memory trace analytics.

Everything here runs *during* the simulation, as observers — no engine
events are ever scheduled, so sim time with the lens on is bit-identical
to a plain traced run, and a lens-off run is bit-identical to an untraced
one (no lens object exists at all).

* :class:`LensFeed` — sliding sim-time windows of per-page fault rate,
  owner churn (exclusive-ownership transfers), and (requester -> victim)
  ping-pong pair counts, each with slice-based decay and a fixed key cap;
  plus per-(phase x app x mode) critical-path latency histograms.  Heat
  comes from the process probes the §IV-A fault profiler records
  (``fault_begin``, ``invalidate``) and from ``grant``: the feed observes
  every process of its cluster, and a fault counts when it traps.
* :class:`LensSink` — the engine's ``span_close`` observer that hands
  each completed span tree to the feed's histograms.
* :class:`TopView` — the ``python -m repro.obs top`` live terminal view;
  renders opportunistically whenever a span close crosses the next
  sim-time deadline (never schedules anything).
* :class:`~repro.obs.ring.FlightRecorder` — see :mod:`repro.obs.ring`.

Critical-path extraction: spans are buffered per trace as they close;
when a trace's *root* closes, :func:`tree_phases` runs the one
attribution sweep of :mod:`repro.obs.export` over the tree, ranked by
depth (see there).  The buffer holds at most ``LensSink.max_traces``
incomplete trees (FIFO eviction, counted).

Enable with ``SimParams(lens="1")`` / ``DEX_LENS=1``; the lens implies a
tracer.  ``SimParams.lens_window_us`` sets the heat window and
``lens_dump_path`` the crash dump; every other capacity is the
constructor default of the component that owns it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.obs.export import PathPhase, path_phase_of, phase_of, sweep
from repro.obs.metrics import Histogram
from repro.obs.ring import FlightRecorder
from repro.obs.tracing import Span, Tracer

__all__ = [
    "DexLens",
    "LensFeed",
    "PageHeat",
    "SlidingWindow",
    "TopView",
]


class SlidingWindow:
    """A decaying multiset of keyed counts over a sliding sim-time window.

    The window is split into ``slices`` equal slices; counts expire a
    whole slice at a time as sim time advances (that slice-granular drop
    *is* the decay).  Live keys are capped: past ``max_keys`` the coldest
    keys are evicted in one batch, and ``evicted`` counts them so a capped
    window is never silently mistaken for a complete one.
    """

    __slots__ = (
        "window_us", "slices", "slice_us", "max_keys",
        "_totals", "_ring", "_head", "evicted",
    )

    def __init__(self, window_us: float, slices: int = 8, max_keys: int = 4096):
        if window_us <= 0 or slices < 1 or max_keys < 1:
            raise ValueError("window needs window_us > 0, slices >= 1, max_keys >= 1")
        self.window_us = float(window_us)
        self.slices = slices
        self.slice_us = self.window_us / slices
        self.max_keys = max_keys
        self._totals: Dict[Any, float] = {}
        #: slice index -> {key: count}; only the last `slices` indices live
        self._ring: "OrderedDict[int, Dict[Any, float]]" = OrderedDict()
        self._head = -1  # highest slice index seen
        self.evicted = 0

    def _advance(self, now: float) -> None:
        idx = int(now / self.slice_us)
        if idx <= self._head and self._ring:
            return
        self._head = max(self._head, idx)
        floor = self._head - self.slices + 1
        ring = self._ring
        totals = self._totals
        while ring:
            oldest = next(iter(ring))
            if oldest >= floor:
                break
            for key, amount in ring.popitem(last=False)[1].items():
                left = totals.get(key, 0.0) - amount
                if left > 1e-9:
                    totals[key] = left
                else:
                    totals.pop(key, None)

    def add(self, now: float, key: Any, amount: float = 1.0) -> None:
        self._advance(now)
        idx = int(now / self.slice_us)
        slot = self._ring.get(idx)
        if slot is None:
            slot = self._ring[idx] = {}
        slot[key] = slot.get(key, 0.0) + amount
        self._totals[key] = self._totals.get(key, 0.0) + amount
        if len(self._totals) > self.max_keys:
            self._evict()

    def _evict(self) -> None:
        # batch-drop the coldest ~1/8 so eviction cost amortizes
        drop = max(1, self.max_keys // 8)
        victims = sorted(self._totals, key=self._totals.__getitem__)[:drop]
        for key in victims:
            del self._totals[key]
            for slot in self._ring.values():
                slot.pop(key, None)
        self.evicted += len(victims)

    def get(self, now: float, key: Any) -> float:
        self._advance(now)
        return self._totals.get(key, 0.0)

    def total(self, now: float) -> float:
        self._advance(now)
        return sum(self._totals.values())

    def top(self, now: float, n: int = 10) -> List[Tuple[Any, float]]:
        self._advance(now)
        ranked = sorted(self._totals.items(), key=lambda kv: (-kv[1], str(kv[0])))
        return ranked[:n]

    def __len__(self) -> int:
        return len(self._totals)


class PageHeat(NamedTuple):
    """One hot page as the feed reports it."""

    vpn: int
    faults: float
    rate_per_ms: float
    churn: float


class LensFeed:
    """The stable query surface over the streaming heat statistics and the
    critical-path histograms.  All queries are side-effect free (beyond
    window advancement) and safe to call at any point of the run."""

    def __init__(
        self,
        engine,
        page_size: int,
        *,
        window_us: float = 5_000.0,
        slices: int = 8,
        max_keys: int = 4096,
    ):
        self.engine = engine
        self.window_us = float(window_us)
        self._page_size = page_size
        self._faults = SlidingWindow(window_us, slices, max_keys)
        self._churn = SlidingWindow(window_us, slices, max_keys)
        self._pairs = SlidingWindow(window_us, slices, max_keys)
        #: critical-path latency, log buckets, per (phase x app x mode)
        self.path_us = Histogram(
            "lens_path_us",
            "critical-path attributed latency per completed span tree",
            labelnames=("phase", "app", "mode"),
        )
        #: end-to-end latency per completed tree, per (app x mode)
        self.tree_us = Histogram(
            "lens_tree_us",
            "end-to-end latency per completed span tree",
            labelnames=("app", "mode"),
        )
        self.trees_completed = 0
        self.trees_evicted = 0

    # -- process probes (``proc.add_hook``) ----------------------------------

    def on_fault_begin(self, now: float, node: int, tid: int, write: bool,
                       site: str, addr: int, tag: str) -> None:
        self._faults.add(now, addr // self._page_size)

    def on_invalidate(self, now: float, node: int, addr: int, requester: int) -> None:
        # *node* is the victim giving the page up
        self._pairs.add(now, (addr // self._page_size, requester, node))

    def on_grant(self, vpn: int, requester: int, write: bool, entry=None) -> None:
        if write:  # an exclusive-ownership transfer
            self._churn.add(self.engine.now, vpn)

    # -- heat queries -------------------------------------------------------

    def hot_pages(self, top: int = 10) -> List[PageHeat]:
        """The *top* most-faulted pages in the window, hottest first, with
        their fault rate and owner churn (exclusive-ownership transfers)."""
        now = self.engine.now
        span = min(self.window_us, now) or self.window_us
        return [
            PageHeat(vpn, count, count * 1000.0 / span, self._churn.get(now, vpn))
            for vpn, count in self._faults.top(now, top)
        ]

    def ping_pong_pairs(
        self, top: int = 10, vpn: Optional[int] = None
    ) -> List[Tuple[Tuple[int, int], float]]:
        """Worst (requester -> victim) invalidation pairs in the window,
        aggregated across pages (or restricted to one *vpn*)."""
        now = self.engine.now
        agg: Dict[Tuple[int, int], float] = {}
        self._pairs._advance(now)
        for (page, requester, victim), count in self._pairs._totals.items():
            if vpn is not None and page != vpn:
                continue
            pair = (requester, victim)
            agg[pair] = agg.get(pair, 0.0) + count
        ranked = sorted(agg.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:top]

    @property
    def evicted(self) -> Dict[str, int]:
        """Keys dropped by the memory cap, per statistic (0 = complete)."""
        return {
            "faults": self._faults.evicted,
            "churn": self._churn.evicted,
            "pairs": self._pairs.evicted,
        }

    # -- critical-path queries ----------------------------------------------

    def phase_histograms(self) -> Dict[str, Histogram]:
        """``path_us`` folded over app and mode: one histogram per
        :class:`PathPhase` value (the manifest's ``phases`` section)."""
        per_phase: Dict[str, Histogram] = {}
        for (phase, _app, _mode), child in self.path_us.per_label().items():
            per_phase[phase] = child.merge_into(per_phase.get(phase))
        return per_phase

    def path_breakdown(self) -> Dict[str, Dict[str, Any]]:
        """Per-:class:`PathPhase` latency snapshot (count/mean/p50/p99/...)."""
        return {phase: hist.snapshot()
                for phase, hist in self.phase_histograms().items()}

    def _record_tree(self, root: Span, members: List[Span]) -> None:
        app_cat = phase_of(root.name)
        app = app_cat[0] if app_cat is not None else "other"
        mode = _tree_mode(root)
        for phase, us in tree_phases(root, members).items():
            self.path_us.labels(phase=phase.value, app=app, mode=mode).observe(us)
        self.tree_us.labels(app=app, mode=mode).observe(root.duration_us)
        self.trees_completed += 1


def tree_phases(root: Span, members: List[Span]) -> Dict[PathPhase, float]:
    """*root*'s latency by :class:`PathPhase`: the sweep ranked by depth,
    so each instant belongs to the leg actually being serviced (the wire
    transfer, the remote handler, the revocation wait); equal-depth
    fan-out legs go to the higher span id.  The root's own residual in a
    multi-span tree is requester-side work between the legs (trap cost,
    PTE updates, retry backoff): queueing."""
    multi = len(members) > 1
    depth: Dict[int, int] = {root.span_id: 0}
    index = {span.span_id: span for span in members}
    return sweep(
        (span.start_us, span.end_us,
         (_depth_of(span, depth, index), span.span_id),
         PathPhase.QUEUE if span is root and multi else path_phase_of(span.name))
        for span in members)


def _depth_of(span: Span, depth: Dict[int, int], index: Dict[int, Span]) -> int:
    """*span*'s depth below its tree's root, memoised in *depth*.  (A
    module function: a nested one calling itself would leave a function
    <-> cell cycle behind per tree.)"""
    d = depth.get(span.span_id)
    if d is None:
        parent = index.get(span.parent_id)
        d = 1 if parent is None else _depth_of(parent, depth, index) + 1
        depth[span.span_id] = d
    return d


def _tree_mode(root: Span) -> str:
    """The §V-D mode label of a completed tree, matching ``DexStats``:
    contended (retried), coalesced, or fast."""
    attrs = root.attrs
    if attrs.get("retries"):
        return "contended"
    if attrs.get("coalesced"):
        return "coalesced"
    return "fast"


class LensSink:
    """The span-close sink: buffers spans per trace and hands each tree to
    the feed's critical-path histograms when its root closes."""

    __slots__ = ("feed", "max_traces", "_traces")

    def __init__(self, feed: LensFeed, max_traces: int = 256):
        self.feed = feed
        self.max_traces = max_traces
        self._traces: "OrderedDict[int, List[Span]]" = OrderedDict()

    def on_span_close(self, span: Span) -> None:
        feed = self.feed
        traces = self._traces
        members = traces.get(span.trace_id)
        if members is None:
            if len(traces) >= self.max_traces:
                traces.popitem(last=False)
                feed.trees_evicted += 1
            members = traces[span.trace_id] = []
        members.append(span)
        if span.parent_id is None:
            del traces[span.trace_id]
            feed._record_tree(span, members)


class TopView:
    """Live terminal frames at a configurable sim-time interval.

    Rendering piggybacks on span closes: whenever one lands past the next
    deadline a frame is printed.  Nothing is scheduled on the engine, so
    sim time and event order are untouched by the view.
    """

    def __init__(self, feed: LensFeed, interval_us: float = 10_000.0,
                 limit: int = 8, stream=None):
        self.feed = feed
        self.interval_us = float(interval_us)
        self.limit = limit
        self.stream = stream
        self.frames = 0
        self._next = self.interval_us

    def on_span_close(self, span: Span) -> None:
        end = span.end_us
        if end is not None and end >= self._next:
            self._next = (int(end / self.interval_us) + 1) * self.interval_us
            self.render()

    def render(self) -> str:
        feed = self.feed
        now = feed.engine.now
        lines = [
            f"=== dex top @ {now:.0f}us"
            f" (window {feed.window_us:.0f}us,"
            f" {feed.trees_completed} trees) ==="
        ]
        lines.append(f"  {'hottest pages':<20}{'faults':>8}{'/ms':>8}{'churn':>8}")
        for heat in feed.hot_pages(self.limit):
            lines.append(
                f"  {heat.vpn:<#20x}{heat.faults:>8.0f}"
                f"{heat.rate_per_ms:>8.1f}{heat.churn:>8.0f}"
            )
        pairs = feed.ping_pong_pairs(self.limit)
        if pairs:
            lines.append(f"  {'ping-pong pairs':<20}{'invals':>8}")
            for (requester, victim), count in pairs:
                lines.append(f"  n{requester}->n{victim:<15}{count:>10.0f}")
        breakdown = feed.path_breakdown()
        if breakdown:
            lines.append(
                f"  {'critical path':<14}{'count':>8}{'p50 us':>10}{'p99 us':>10}"
            )
            for phase in PathPhase:
                snap = breakdown.get(phase.value)
                if snap is None or not snap["count"]:
                    continue
                lines.append(
                    f"  {phase.value:<14}{snap['count']:>8}"
                    f"{snap['p50']:>10.1f}{snap['p99']:>10.1f}"
                )
        frame = "\n".join(lines)
        self.frames += 1
        if self.stream is not None:
            print(frame, file=self.stream)
        return frame


class DexLens:
    """The per-cluster analytics bundle: a :class:`LensFeed` (which every
    process of the cluster observes) behind its :class:`LensSink`, and a
    :class:`~repro.obs.ring.FlightRecorder`, both observers of the
    cluster's engine.  (``obs top`` adds its :class:`TopView` over
    ``feed`` the same way.)"""

    def __init__(self, cluster, tracer: Tracer):
        self.params = cluster.params
        self.tracer = tracer
        self.feed = LensFeed(cluster.engine, cluster.params.page_size,
                             window_us=cluster.params.lens_window_us)
        self.sink = LensSink(self.feed)
        cluster.engine.add_hook(self.sink)
        self.recorder = FlightRecorder(tracer, num_nodes=cluster.num_nodes)
        cluster.engine.add_hook(self.recorder)
        self.dump_path: Optional[str] = None

    def dump_on_crash(self, err: BaseException) -> Optional[str]:
        """Flight-recorder auto-dump: write the snapshot named by
        ``SimParams.lens_dump_path`` (default ``./dex-flightrec.json``;
        ``""`` disables).  Idempotent per lens — the first failure wins,
        retries/re-raises do not overwrite the evidence."""
        if self.dump_path is not None:
            return self.dump_path
        path = self.params.lens_dump_path
        if path == "":
            return None
        if path is None:
            path = "dex-flightrec.json"
        self.recorder.dump(path, reason=f"{type(err).__name__}: {err}")
        self.dump_path = path
        return path
