"""DexLens: online, bounded-memory trace analytics.

Everything here runs *during* the simulation, fed exclusively by the
engine's ``span_close`` probe (``engine.add_hook``, fired by the tracer)
— no engine events are ever scheduled, so sim time with the lens on is
bit-identical to a plain traced run, and a lens-off run is bit-identical
to an untraced one (no lens object exists at all).

Three consumers ride the probe:

* :class:`LensFeed` — sliding sim-time windows of per-page fault rate,
  owner churn (exclusive-ownership transfers), and (requester -> victim)
  ping-pong pair counts, each with slice-based decay and a fixed key cap;
  plus per-(phase x app x mode) critical-path latency histograms filled
  by the one-pass tree walk below.  This is the stable query API the
  future placement balancer consumes.
* :class:`TopView` — the ``python -m repro.obs top`` live terminal view;
  renders opportunistically whenever a span close crosses the next
  sim-time deadline (never schedules anything).
* :class:`~repro.obs.ring.FlightRecorder` — see :mod:`repro.obs.ring`.

Critical-path extraction: spans are buffered per trace as they close;
when a trace's *root* closes the tree is walked once with a
deepest-active-span sweep — every instant of the tree's lifetime is
attributed to the :class:`~repro.obs.export.PathPhase` of the deepest
span covering it, root-owned residual counting as queueing.  Ownership
is exclusive, so the per-phase parts sum to the tree's covered wall time
even though handler and wire legs run concurrently with their waiting
ancestors; equal-depth parallel fan-out legs (a multi-victim revocation)
attribute to a single leg, critical-path style.  The buffer holds at
most ``lens_max_traces`` incomplete trees (FIFO eviction, counted).

Enable with ``SimParams(lens="1")`` / ``DEX_LENS=1``; the lens implies a
tracer.  All knobs live on :class:`~repro.params.SimParams` (``lens_*``).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.export import PathPhase, path_phase_of, phase_of
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


class PageHeat:
    """One hot page as the feed reports it."""

    __slots__ = ("vpn", "faults", "rate_per_ms", "churn")

    def __init__(self, vpn: int, faults: float, rate_per_ms: float, churn: float):
        self.vpn = vpn
        self.faults = faults
        self.rate_per_ms = rate_per_ms
        self.churn = churn

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PageHeat(vpn={self.vpn:#x} faults={self.faults:.0f}"
            f" rate={self.rate_per_ms:.2f}/ms churn={self.churn:.0f})"
        )


class LensFeed:
    """The stable query surface over the streaming heat statistics and the
    critical-path histograms.  All queries are side-effect free (beyond
    window advancement) and safe to call at any point of the run."""

    def __init__(
        self,
        engine,
        *,
        window_us: float = 5_000.0,
        slices: int = 8,
        max_keys: int = 4096,
    ):
        self.engine = engine
        self.window_us = float(window_us)
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

    # -- update entry points (called by the sink only) ----------------------

    def _on_fault(self, now: float, vpn: int) -> None:
        self._faults.add(now, vpn)

    def _on_write_grant(self, now: float, vpn: int) -> None:
        self._churn.add(now, vpn)

    def _on_invalidate(self, now: float, vpn: int, requester: int, victim: int) -> None:
        self._pairs.add(now, (vpn, requester, victim))

    # -- heat queries -------------------------------------------------------

    def page_faults(self, vpn: int) -> float:
        """Faults on *vpn* inside the current window."""
        return self._faults.get(self.engine.now, vpn)

    def hot_pages(self, top: int = 10) -> List[PageHeat]:
        now = self.engine.now
        span = min(self.window_us, now) or self.window_us
        return [
            PageHeat(vpn, count, count * 1000.0 / span, self._churn.get(now, vpn))
            for vpn, count in self._faults.top(now, top)
        ]

    def owner_churn(self, vpn: int) -> float:
        """Exclusive-ownership transfers of *vpn* inside the window."""
        return self._churn.get(self.engine.now, vpn)

    def churn_pages(self, top: int = 10) -> List[Tuple[int, float]]:
        return self._churn.top(self.engine.now, top)

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

    def page_pairs(self, vpn: int) -> List[Tuple[int, int, float]]:
        """Per-page (requester, victim, count) triples, hottest first —
        shaped like ``tools.analysis.PageReport.invalidation_pairs``."""
        now = self.engine.now
        self._pairs._advance(now)
        triples = [
            (requester, victim, count)
            for (page, requester, victim), count in self._pairs._totals.items()
            if page == vpn
        ]
        triples.sort(key=lambda t: (-t[2], t[0], t[1]))
        return triples

    @property
    def evicted(self) -> Dict[str, int]:
        """Keys dropped by the memory cap, per statistic (0 = complete)."""
        return {
            "faults": self._faults.evicted,
            "churn": self._churn.evicted,
            "pairs": self._pairs.evicted,
        }

    # -- critical-path queries ----------------------------------------------

    def path_breakdown(
        self, app: Optional[str] = None, mode: Optional[str] = None
    ) -> Dict[str, Dict[str, Any]]:
        """Per-:class:`PathPhase` latency snapshot (count/mean/p50/p99/...),
        optionally restricted to one app-phase and/or mode label."""
        per_phase: Dict[str, Histogram] = {}
        for (phase, app_label, mode_label), child in self.path_us.per_label().items():
            if app is not None and app_label != app:
                continue
            if mode is not None and mode_label != mode:
                continue
            per_phase[phase] = child.merge_into(per_phase.get(phase))
        return {phase: hist.snapshot() for phase, hist in per_phase.items()}

    def _record_tree(self, root: Span, members: List[Span]) -> None:
        """The one-pass walk: attribute *root*'s end-to-end latency to path
        phases by a deepest-active-span sweep.

        At every instant of the tree's lifetime the time belongs to the
        *deepest* span covering it — the leg actually being serviced (the
        wire transfer, the remote handler, the revocation wait); intervals
        no descendant covers fall to their parent, and root-owned residual
        is queueing.  Because ownership is exclusive, the per-phase parts
        sum to the tree's covered wall time — nothing is double-counted
        even though a child subtree (wire delivery, an adopted handler)
        runs concurrently with its waiting ancestor.  Parallel fan-out legs
        at equal depth attribute to one leg (critical-path semantics)."""
        app_cat = phase_of(root.name)
        app = app_cat[0] if app_cat is not None else "other"
        mode = _tree_mode(root)
        multi = len(members) > 1
        depth: Dict[int, int] = {root.span_id: 0}
        index = {span.span_id: span for span in members}

        def depth_of(span: Span) -> int:
            d = depth.get(span.span_id)
            if d is None:
                parent = index.get(span.parent_id)
                d = 1 if parent is None else depth_of(parent) + 1
                depth[span.span_id] = d
            return d

        # sweep events: (time, is_end, depth, span); ends before starts at
        # ties so back-to-back legs hand over cleanly
        events = []
        for span in members:
            if span.end_us is None or span.end_us <= span.start_us:
                continue
            d = depth_of(span)
            events.append((span.start_us, 1, d, span))
            events.append((span.end_us, 0, d, span))
        events.sort(key=lambda e: (e[0], e[1]))
        active: Dict[int, Tuple[int, Span]] = {}
        phases: Dict[PathPhase, float] = {}
        last_t: Optional[float] = None
        for t, is_start, d, span in events:
            if active and last_t is not None and t > last_t:
                _, owner = max(
                    active.values(), key=lambda ds: (ds[0], ds[1].span_id)
                )
                if owner is root and multi:
                    # root residual = requester-side work between the legs
                    # (trap cost, PTE updates, retry backoff): queueing.  A
                    # single-span tree classifies by its own name instead
                    phase = PathPhase.QUEUE
                else:
                    phase = path_phase_of(owner.name)
                phases[phase] = phases.get(phase, 0.0) + (t - last_t)
            if is_start:
                active[span.span_id] = (d, span)
            else:
                active.pop(span.span_id, None)
            last_t = t
        for phase, us in phases.items():
            self.path_us.labels(phase=phase.value, app=app, mode=mode).observe(us)
        self.tree_us.labels(app=app, mode=mode).observe(root.duration_us)
        self.trees_completed += 1


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
    """The span-close sink: routes heat events to the feed and buffers
    spans per trace for critical-path extraction on root close."""

    __slots__ = ("feed", "max_traces", "_traces")

    def __init__(self, feed: LensFeed, max_traces: int = 256):
        self.feed = feed
        self.max_traces = max_traces
        self._traces: "OrderedDict[int, List[Span]]" = OrderedDict()

    def on_span_close(self, span: Span) -> None:
        feed = self.feed
        name = span.name
        attrs = span.attrs
        end = span.end_us
        if name == "fault":
            feed._on_fault(end, attrs["vpn"])
        elif name == "protocol.invalidate":
            # span.node is the victim applying the revocation
            feed._on_invalidate(end, attrs["vpn"], attrs["requester"], span.node)
        elif name == "protocol.grant" and attrs.get("write"):
            feed._on_write_grant(end, attrs["vpn"])
        # critical-path buffering
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
    """The per-cluster analytics bundle: a :class:`LensFeed` behind its
    :class:`LensSink`, and a :class:`~repro.obs.ring.FlightRecorder`, both
    observers of the cluster's engine.  (``obs top`` adds its
    :class:`TopView` over ``feed`` the same way.)"""

    def __init__(self, cluster, tracer: Tracer):
        params = cluster.params
        self.cluster = cluster
        self.tracer = tracer
        self.feed = LensFeed(
            cluster.engine,
            window_us=params.lens_window_us,
            slices=params.lens_window_slices,
            max_keys=params.lens_max_keys,
        )
        self.sink = LensSink(self.feed, max_traces=params.lens_max_traces)
        cluster.engine.add_hook(self.sink)
        self.recorder = FlightRecorder(
            tracer,
            num_nodes=cluster.num_nodes,
            ring_spans=params.lens_ring_spans,
            ring_msgs=params.lens_ring_msgs,
        )
        cluster.engine.add_hook(self.recorder)
        self.dump_path: Optional[str] = None

    def dump_on_crash(self, err: BaseException) -> Optional[str]:
        """Flight-recorder auto-dump: write the snapshot named by
        ``SimParams.lens_dump_path`` (default ``./dex-flightrec.json``;
        ``""`` disables).  Idempotent per lens — the first failure wins,
        retries/re-raises do not overwrite the evidence."""
        if self.dump_path is not None:
            return self.dump_path
        path = self.cluster.params.lens_dump_path
        if path == "":
            return None
        if path is None:
            path = "dex-flightrec.json"
        self.recorder.dump(path, reason=f"{type(err).__name__}: {err}")
        self.dump_path = path
        return path
