"""Fixture: spans opened outside ``with``, the tracer's explicit pair used
outside the fabric, and trace ids smuggled through dict payloads — every
form the span-discipline rule must flag."""


def leaky_span(tracer, engine):
    handle = tracer.span("fault", node=0, tid=1)  # never closed
    ctx = engine.span("compute", node=0)          # same leak, through the seam
    return handle, ctx


def by_hand(tracer, key):
    # the explicit pair belongs to net/fabric.py's message flights only
    span = tracer.open_span(key, "compute", 0, -1, {})
    tracer.close_span(key, span)


def smuggled_context(current):
    payload = {"trace_id": current.trace_id, "parent_span": current.span_id}
    record = {"span_id": current.span_id}
    return payload, record


def sanctioned(tracer, engine):
    # the with forms are fine — the rule must not flag these
    with tracer.span("fault", node=0, tid=1):
        pass
    with engine.span("compute", node=0) as span:
        return span
