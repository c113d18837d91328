"""Causal span tracing over the simulation engine.

A :class:`Span` is a named, timed interval of simulated work (a page
fault, a protocol grant, a wire transfer).  Spans form trees: within one
simulated process, ``with tracer.span(...)`` nests lexically; across
processes and nodes, parentage is carried explicitly — either by
:meth:`Tracer.carry`/:meth:`Tracer.adopt` when one sim process spawns or
serves another, or by the ``trace_id``/``parent_span`` fields that
:meth:`Tracer.inject` stamps onto outgoing :class:`~repro.net.messages.Message`
headers.  One contended page fault therefore renders as a single tree
spanning requester → home → victim.

Span context is keyed by the *currently executing* simulation process
(``engine.current_process``), so interleaved processes on one engine can
never steal each other's parents; a message in flight, which is engine
callbacks and not a process, is the key of its own stack
(:meth:`Tracer.open_span`).  When tracing is off (``DEX_TRACE``
unset and ``SimParams.trace`` falsy) no tracer exists at all: hot paths
guard on ``proc.obs is None`` / use :func:`maybe_span`, and the engine
runs with empty hooks — zero cost.

Online consumers (the DexLens analytics layer, the flight recorder) are
engine observers like any other (``engine.add_hook``): ``on_span_close``
fires once per span, at close time, with the span's final attrs — the only
sanctioned way to observe spans during the run — and ``on_message(now,
msg)`` once per traced outbound message.  With nobody listening the close
path costs one truthiness test on an empty list.
"""

from __future__ import annotations

import itertools
import json
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["Span", "Tracer", "maybe_span", "NULL_SPAN", "load_spans"]

SPANS_FORMAT = "dextrace-spans-v1"


class Span:
    """One timed interval.  ``node``/``tid`` are -1 when not applicable
    (e.g. service-side work not bound to an app thread)."""

    __slots__ = (
        "name", "span_id", "trace_id", "parent_id",
        "node", "tid", "start_us", "end_us", "attrs", "adopted",
    )

    def __init__(
        self,
        name: str,
        span_id: int,
        trace_id: int,
        parent_id: Optional[int],
        node: int,
        tid: int,
        start_us: float,
        end_us: Optional[float] = None,
        attrs: Optional[Dict[str, Any]] = None,
        adopted: bool = False,
    ):
        self.name = name
        self.span_id = span_id
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.node = node
        self.tid = tid
        self.start_us = start_us
        self.end_us = end_us
        self.attrs = attrs if attrs is not None else {}
        self.adopted = adopted

    @property
    def duration_us(self) -> float:
        return (self.end_us - self.start_us) if self.end_us is not None else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "parent_id": self.parent_id,
            "node": self.node,
            "tid": self.tid,
            "start_us": self.start_us,
            "end_us": self.end_us,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "Span":
        return cls(
            d["name"], d["span_id"], d["trace_id"], d.get("parent_id"),
            d.get("node", -1), d.get("tid", -1),
            d["start_us"], d.get("end_us"), d.get("attrs") or {},
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r} id={self.span_id} trace={self.trace_id}"
            f" parent={self.parent_id} node={self.node} tid={self.tid}"
            f" [{self.start_us:.1f}..{self.end_us}])"
        )


class _SpanHandle:
    """Context manager returned by :meth:`Tracer.span`; closing pops the
    span off the owning process's stack and stamps ``end_us``."""

    __slots__ = ("_tracer", "span", "_key")

    def __init__(self, tracer: "Tracer", span: Span, key: Any):
        self._tracer = tracer
        self.span = span
        self._key = key

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer.close_span(self._key, self.span)
        return False


class _NullSpan:
    """Reusable no-op context manager (tracing off)."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


def maybe_span(tracer: Optional["Tracer"], name: str, **attrs: Any):
    """``tracer.span(...)`` when tracing is on, a shared no-op context
    manager when *tracer* is None.  The single call + kwargs dict is the
    entire off-mode cost at instrumented sites that use this helper."""
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, **attrs)


class Tracer:
    """Per-engine span recorder.

    Registers itself as ``engine.tracer`` and as an engine hook so that
    adopted (message-handler) spans close and per-process stacks are
    reclaimed when their process finishes.
    """

    def __init__(self, engine, max_spans: int = 1_000_000):
        self.engine = engine
        self.max_spans = max_spans
        self.spans: List[Span] = []
        self.dropped = 0
        self._ids = itertools.count(1)
        # span stacks keyed by the sim Process (or message flight) that
        # opened them (None key = spans opened outside any process, e.g.
        # test driver code)
        self._stacks: Dict[Any, List[Span]] = {}
        #: the engine's ``span_close`` probe, held: the close path runs per
        #: span (lexical closes and adopted handler-root closes alike)
        self._on_span_close: List[Any] = engine.hooks["span_close"]
        engine.tracer = self
        engine.add_hook(self)

    # -- engine probe --------------------------------------------------------

    def on_process_finished(self, proc) -> None:
        """Reclaim *proc*'s stack, closing the adopted spans it owns.  A
        message's flight calls this for itself at delivery."""
        for span in reversed(self._stacks.pop(proc, ())):
            # only spans this process *owns* (adopted roots); carried
            # markers belong to, and are closed by, another stack
            if span.adopted and span.end_us is None:
                self.close_span(proc, span)

    # -- recording -----------------------------------------------------------

    def _record(self, span: Span) -> None:
        if len(self.spans) < self.max_spans:
            self.spans.append(span)
        else:
            self.dropped += 1

    def current(self) -> Optional[Span]:
        """Innermost open span of the currently executing process."""
        stack = self._stacks.get(self.engine.current_process)
        return stack[-1] if stack else None

    def open_spans(self) -> List[Span]:
        """Every span still open right now, across all stacks — the
        flight recorder dumps these as crash evidence (a deadlocked thread's
        blocked span never closes, so the ring alone would miss it)."""
        seen: Dict[int, Span] = {}
        for stack in self._stacks.values():
            for span in stack:
                if span.end_us is None:
                    seen[span.span_id] = span
        return [seen[k] for k in sorted(seen)]

    def span(self, name: str, *, node: int = -1, tid: int = -1, **attrs: Any) -> _SpanHandle:
        """Open a span as a context manager::

            with tracer.span("fault", node=2, tid=5, vpn=vpn):
                ...

        The span parents under the innermost open span of the current sim
        process (or starts a new trace if there is none)."""
        key = self.engine.current_process
        return _SpanHandle(self, self.open_span(key, name, node, tid, attrs), key)

    def open_span(self, key: Any, name: str, node: int, tid: int,
                  attrs: Dict[str, Any]) -> Span:
        """Open *name* on *key*'s span stack.  With :meth:`close_span`,
        the explicit pair :meth:`span` is built on; called directly only by
        an activity with no block to put a ``with`` around — a message in
        flight (``net/fabric.py``), which is its own stack key."""
        stack = self._stacks.get(key)
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        if parent is not None:
            trace_id: int = parent.trace_id
            parent_id: Optional[int] = parent.span_id
        else:
            trace_id = span_id
            parent_id = None
        span = Span(
            name, span_id, trace_id, parent_id,
            node, tid, self.engine.now, attrs=attrs,
        )
        if stack is None:
            self._stacks[key] = [span]
        else:
            stack.append(span)
        self._record(span)
        return span

    def close_span(self, key: Any, span: Span) -> None:
        """Stamp ``end_us``, pop *span* off *key*'s stack, fire the probe."""
        span.end_us = self.engine.now
        stack = self._stacks.get(key)
        if stack is not None:
            try:
                stack.remove(span)
            except ValueError:  # pragma: no cover - defensive
                pass
            if not stack:
                del self._stacks[key]
        if self._on_span_close:
            for closed in self._on_span_close:
                closed(span)

    # -- cross-process / cross-node propagation ------------------------------

    def inject(self, msg) -> None:
        """Stamp the current span context onto an outgoing message (only if
        the message doesn't already carry one — replies built with
        ``make_reply`` get the handler's context at their own send)."""
        if msg.trace_id is not None:
            return
        current = self.current()
        if current is not None:
            msg.trace_id = current.trace_id
            msg.parent_span = current.span_id

    def carry(self, sim_proc) -> None:
        """Seed *sim_proc*'s span stack with the caller's innermost open
        span, so spans the child process opens parent under it (used when a
        handler spawns sub-processes, e.g. a revocation fan-out)."""
        current = self.current()
        if current is not None and sim_proc not in self._stacks:
            self._stacks[sim_proc] = [current]

    def adopt(
        self,
        sim_proc,
        name: str,
        *,
        trace_id: Optional[int],
        parent_id: Optional[int],
        node: int = -1,
        tid: int = -1,
        **attrs: Any,
    ) -> Span:
        """Open *name* as the root span of *sim_proc* (a message-handler
        process), parented on a message-carried context.  The span closes
        when the process finishes (engine hook)."""
        span_id = next(self._ids)
        span = Span(
            name, span_id,
            trace_id if trace_id is not None else span_id,
            parent_id, node, tid, self.engine.now,
            attrs=attrs, adopted=True,
        )
        self._stacks[sim_proc] = [span]
        self._record(span)
        return span

    # -- persistence ---------------------------------------------------------

    def save_json(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "format": SPANS_FORMAT,
                    "dropped": self.dropped,
                    "max_spans": self.max_spans,
                    "spans": [s.to_dict() for s in self.spans],
                },
                fh,
            )


def load_artifact(path: str, what: str, key: str, expected: str) -> Dict[str, Any]:
    """The JSON object saved in *path*, which must be *what* (its version
    field *key* holds *expected*), or one ``ValueError`` naming the file
    and what is wrong with it — the line a CLI prints before exiting 2."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except ValueError as err:  # truncated, or not JSON at all
        raise ValueError(f"{path!r} is not valid JSON: {err}") from err
    found = doc.get(key) if isinstance(doc, dict) else None
    if found != expected:
        raise ValueError(
            f"{path!r} is not {what} ({key}={found!r}, expected {expected!r})")
    return doc


def spans_of(path: str, doc: Dict[str, Any]) -> List[Span]:
    """The span records of a loaded artifact; ``ValueError`` says what
    :meth:`Span.from_dict` could not rebuild one from."""
    try:
        return [Span.from_dict(record) for record in doc.get("spans", [])]
    except (KeyError, TypeError) as err:
        raise ValueError(f"{path!r}: malformed span record ({err!r})") from err


def load_spans(path: str) -> Tuple[List[Span], Dict[str, Any]]:
    """Load spans saved by :meth:`Tracer.save_json`; returns
    ``(spans, meta)`` where meta holds ``dropped``/``max_spans``.  Raises
    ``ValueError`` for anything that is not a whole span log."""
    doc = load_artifact(path, "a span log", "format", SPANS_FORMAT)
    meta = {k: v for k, v in doc.items() if k != "spans"}
    return spans_of(path, doc), meta
