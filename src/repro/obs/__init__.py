"""DexTrace: the observability layer (causal span tracing, typed metrics,
Perfetto export).

Its parts:

* :mod:`repro.obs.tracing` — :class:`Tracer`/:class:`Span`: causally-linked
  span trees over the simulation, following requests across nodes via
  message-carried trace ids.
* :mod:`repro.obs.metrics` — :class:`Counter`/:class:`Histogram` and
  :class:`MetricsRegistry`; ``DexStats`` is a typed facade over one.
* :mod:`repro.obs.export` — Chrome trace-event JSON (Perfetto), terminal
  reports, and the one span-phase table and attribution sweep.
* :mod:`repro.obs.lens` — DexLens: online, bounded-memory trace analytics
  (windowed heat stats, critical-path histograms, live top view) fed by
  span-close sinks; :mod:`repro.obs.ring` is its crash flight recorder.
* :mod:`repro.obs.scope` — DexScope: sim-time utilization series.

Enable tracing with ``DexCluster(trace=True)`` / ``SimParams(trace="1")`` or
the ``DEX_TRACE`` environment variable; when off, no tracer object exists
and the instrumented hot paths reduce to a ``None`` check.  The lens has
the same shape behind ``SimParams(lens="1")`` / ``DEX_LENS`` (lens on
implies a tracer).  Buffer sizes are the observers' own constructor
defaults and module constants, not ``SimParams`` fields.

CLI: ``python -m repro.obs run|report|export|top`` (see ``--help``).
"""

from __future__ import annotations

from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.obs.tracing import NULL_SPAN, Span, Tracer, load_spans, maybe_span

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "Span",
    "Tracer",
    "load_spans",
    "maybe_span",
]
