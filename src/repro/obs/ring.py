"""Bounded history rings: the crash flight recorder and the DexScope
time-series ring.

:class:`SeriesRing` is the storage behind every DexScope utilization
series (``repro.obs.scope``): a fixed-capacity list of ``(t, value)``
points that *decimates* instead of truncating — when full, adjacent
points merge pairwise and the accept stride doubles, so the same buffer
always covers the whole run at the finest resolution that fits.  It is
the slice-ring decay idea of the lens's :class:`SlidingWindow`, applied
to an ever-growing run instead of a fixed window.

The rest of this module is the crash flight recorder: fixed-size
per-node rings of recent spans and protocol messages, dumped as a
Perfetto-loadable snapshot on failure.

The recorder is an engine observer (``span_close`` and ``message`` probes):
``on_span_close`` appends each closed span to its node's ring and
``on_message`` records a compact summary of every traced outbound message.
Rings are ``collections.deque(maxlen=...)`` — O(1) append, fixed memory,
the tail of history falls off the far end — so the recorder's cost and
footprint are independent of run length.

A dump combines three kinds of evidence:

* the ring spans (recent completed work, per node),
* every span still *open* at dump time (a deadlocked thread's blocked
  span never closes — the rings alone would miss the most important
  evidence), synthetically closed at the dump timestamp and marked
  ``unfinished`` in its args, and
* the message ring, rendered as instant events on a per-node lane.

The snapshot file is Chrome trace-event JSON (load at ui.perfetto.dev)
with extra top-level keys (``format``/``reason``/``spans``) that Perfetto
ignores but :func:`load_snapshot` round-trips, so the export-side tree
validators run on crash dumps unchanged.

``DexCluster.simulate`` triggers the dump automatically for any
:class:`~repro.core.errors.DexError` — deadlocks, sanitizer violations,
unrecovered chaos crashes — when the lens is on (``DEX_LENS=1``).
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Dict, List, Tuple

from repro.obs.export import chrome_trace
from repro.obs.tracing import Span, Tracer, load_artifact, spans_of

__all__ = ["FlightRecorder", "SeriesRing", "load_snapshot"]

SNAPSHOT_FORMAT = "dex-flightrec-v1"


class SeriesRing:
    """A bounded ``(t, value)`` time series with pairwise decay.

    Points arrive on the sampler's grid.  ``stride`` raw points are
    pre-aggregated into one stored point; when the store reaches
    *capacity*, adjacent stored points merge pairwise and the stride
    doubles.  Memory is therefore fixed while coverage is always the full
    run, at resolution ``stride * base_interval``.

    ``agg`` picks the aggregation: ``"mean"`` for level gauges (busy
    fraction, queue depth), ``"max"`` for spikes, ``"sum"`` for per-
    interval increments (rates), ``"last"`` for cumulative counters.
    """

    __slots__ = (
        "capacity", "agg", "stride",
        "_t", "_v", "_acc_t", "_acc_v", "_acc_n",
    )

    def __init__(self, capacity: int = 512, agg: str = "mean"):
        if capacity < 4:
            raise ValueError(f"series capacity must be >= 4, got {capacity}")
        if agg not in ("mean", "max", "sum", "last"):
            raise ValueError(f"unknown aggregation {agg!r}")
        self.capacity = capacity
        self.agg = agg
        #: raw samples folded into each stored point (doubles on overflow)
        self.stride = 1
        self._t: List[float] = []
        self._v: List[float] = []
        self._acc_t = 0.0
        self._acc_v = 0.0
        self._acc_n = 0

    def __len__(self) -> int:
        return len(self._t)

    def push(self, t: float, value: float) -> None:
        if self._acc_n == 0:
            self._acc_t = t
            self._acc_v = value
        elif self.agg == "max":
            if value > self._acc_v:
                self._acc_v = value
        elif self.agg == "last":
            self._acc_v = value
        else:  # mean and sum both accumulate; mean divides on store
            self._acc_v += value
        self._acc_n += 1
        if self._acc_n >= self.stride:
            value = (
                self._acc_v / self._acc_n if self.agg == "mean" else self._acc_v
            )
            self._t.append(self._acc_t)
            self._v.append(value)
            self._acc_n = 0
            if len(self._t) >= self.capacity:
                self._decimate()

    def _combine(self, a: float, b: float) -> float:
        if self.agg == "mean":
            return (a + b) / 2.0
        if self.agg == "max":
            return a if a > b else b
        if self.agg == "sum":
            return a + b
        return b  # last

    def _decimate(self) -> None:
        t, v = self._t, self._v
        half_t: List[float] = []
        half_v: List[float] = []
        i, n = 0, len(t)
        while i + 1 < n:
            half_t.append(t[i])
            half_v.append(self._combine(v[i], v[i + 1]))
            i += 2
        if i < n:  # odd tail point survives unmerged
            half_t.append(t[i])
            half_v.append(v[i])
        self._t, self._v = half_t, half_v
        self.stride *= 2

    def points(self) -> List[Tuple[float, float]]:
        """Stored points, oldest first (the partial accumulator included
        so the series never lags the last firing)."""
        out = list(zip(self._t, self._v))
        if self._acc_n:
            value = (
                self._acc_v / self._acc_n if self.agg == "mean" else self._acc_v
            )
            out.append((self._acc_t, value))
        return out

    def to_dict(self) -> Dict[str, Any]:
        pts = self.points()
        return {
            "agg": self.agg,
            "stride": self.stride,
            "t": [round(t, 3) for t, _ in pts],
            "v": [round(v, 6) for _, v in pts],
        }


class FlightRecorder:
    """Per-node bounded history of closed spans and outbound messages."""

    def __init__(
        self,
        tracer: Tracer,
        *,
        num_nodes: int,
        ring_spans: int = 4096,
        ring_msgs: int = 2048,
    ):
        self.tracer = tracer
        self.num_nodes = num_nodes
        self.ring_spans = ring_spans
        self.ring_msgs = ring_msgs
        # node -1 (unbound service work) gets its own ring at index num_nodes
        self._spans: List[deque] = [
            deque(maxlen=ring_spans) for _ in range(num_nodes + 1)
        ]
        self._msgs: List[deque] = [
            deque(maxlen=ring_msgs) for _ in range(num_nodes + 1)
        ]
        self.spans_seen = 0
        self.msgs_seen = 0

    def _ring_index(self, node: int) -> int:
        return node if 0 <= node < self.num_nodes else self.num_nodes

    # -- engine probes -------------------------------------------------------

    def on_span_close(self, span: Span) -> None:
        self._spans[self._ring_index(span.node)].append(span)
        self.spans_seen += 1

    def on_message(self, now: float, msg) -> None:
        self._msgs[self._ring_index(msg.src)].append((
            now, msg.msg_type, msg.src, msg.dst, msg.trace_id, msg.parent_span,
        ))
        self.msgs_seen += 1

    # -- snapshot ------------------------------------------------------------

    def snapshot_spans(self) -> List[Span]:
        """Ring contents plus currently-open spans, deduped by span id (an
        adopted root can close into the ring between dump decision and
        write), oldest first."""
        seen: Dict[int, Span] = {}
        for ring in self._spans:
            for span in ring:
                seen[span.span_id] = span
        now = self.tracer.engine.now
        for span in self.tracer.open_spans():
            if span.span_id in seen:
                continue
            attrs = dict(span.attrs)
            attrs["unfinished"] = True
            seen[span.span_id] = Span(
                span.name, span.span_id, span.trace_id, span.parent_id,
                span.node, span.tid, span.start_us, now, attrs,
            )
        return [seen[k] for k in sorted(seen)]

    def snapshot_messages(self) -> List[Tuple]:
        out: List[Tuple] = []
        for ring in self._msgs:
            out.extend(ring)
        out.sort(key=lambda rec: rec[0])
        return out

    def dump(self, path: str, *, reason: str = "") -> Dict[str, Any]:
        """Write the snapshot to *path*; returns the document."""
        spans = self.snapshot_spans()
        doc = chrome_trace(spans, dropped=self.tracer.dropped)
        for now, msg_type, src, dst, trace_id, parent_span in self.snapshot_messages():
            doc["traceEvents"].append({
                "name": f"{msg_type} ->n{dst}",
                "cat": "msg",
                "ph": "i",
                "s": "t",  # thread-scoped instant
                "pid": src if src >= 0 else 0,
                "tid": 999,  # dedicated message lane, below the service lanes
                "ts": now,
                "args": {"trace": trace_id, "parent_span": parent_span},
            })
        doc["format"] = SNAPSHOT_FORMAT
        doc["reason"] = reason
        doc["spans"] = [s.to_dict() for s in spans]
        doc["otherData"]["reason"] = reason
        doc["otherData"]["spans_in_rings"] = sum(len(r) for r in self._spans)
        doc["otherData"]["spans_seen"] = self.spans_seen
        doc["otherData"]["msgs_seen"] = self.msgs_seen
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return doc


def load_snapshot(path: str) -> Tuple[List[Span], Dict[str, Any]]:
    """Load a flight-recorder snapshot; returns ``(spans, meta)`` where
    meta carries ``format``/``reason`` and the Perfetto ``otherData``.
    Raises ``ValueError`` for files that aren't whole flight-recorder
    dumps."""
    doc = load_artifact(path, "a flight-recorder snapshot", "format",
                        SNAPSHOT_FORMAT)
    spans = spans_of(path, doc)
    meta = {
        "format": doc["format"],
        "reason": doc.get("reason", ""),
        "otherData": doc.get("otherData", {}),
        "events": len(doc.get("traceEvents", [])),
    }
    return spans, meta
