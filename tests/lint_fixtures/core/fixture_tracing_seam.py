"""Fixture: the retired tracing seam under a ``core`` path: the span
helper and the null-span constant that ``engine.span`` replaced, the
process's observation slot, and imports of the tracing module, which only
``core/cluster.py`` (it builds the Tracer) may import.  Every use must
trip ``span-discipline``."""

from repro.obs.tracing import Tracer
import repro.obs.tracing


def fault(proc, engine):
    with maybe_span(engine, "fault"):
        pass
    if proc.obs is not None:
        return NULL_SPAN
    return Tracer


def late(engine):
    from repro.obs.tracing import load_spans
    return load_spans(engine)
