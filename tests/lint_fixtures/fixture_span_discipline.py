"""Fixture: spans opened outside ``with``, the tracer's explicit pair used
outside the fabric, and trace ids smuggled through dict payloads — every
form the span-discipline rule must flag."""


def leaky_span(tracer, obs):
    handle = tracer.span("fault", node=0, tid=1)  # never closed
    ctx = maybe_span(obs, "compute", node=0)      # noqa: F821 — same leak
    return handle, ctx


def by_hand(tracer, key):
    # the explicit pair belongs to net/fabric.py's message flights only
    span = tracer.open_span(key, "compute", 0, -1, {})
    tracer.close_span(key, span)


def smuggled_context(current):
    payload = {"trace_id": current.trace_id, "parent_span": current.span_id}
    record = {"span_id": current.span_id}
    return payload, record


def sanctioned(tracer, obs):
    # the with forms are fine — the rule must not flag these
    with tracer.span("fault", node=0, tid=1):
        pass
    with maybe_span(obs, "compute", node=0) as span:  # noqa: F821
        return span
