"""Seeded lens-sink-discipline violations: direct mutation of a probe
list (bypassing add_hook, the registry's one place a list grows) and a
critical-path phase label spelled as a string literal, not PathPhase."""


class HeatProbe:
    def __init__(self, tracer, histogram):
        self.hits = 0
        # BAD: growing a probe list by hand, looked up or held — the
        # observer list and the other probes never hear of this object
        tracer.engine.hooks["span_close"].append(self.on_span_close)
        tracer._on_span_close.append(self.on_span_close)
        self.histogram = histogram

    def on_span_close(self, span):
        self.hits += 1
        # BAD: phase label as a string literal, not PathPhase.WIRE.value
        self.histogram.labels(phase="wire", app="other").observe(
            span.duration_us
        )

    def detach(self, tracer):
        # BAD: assignment counts as direct mutation too
        tracer.engine.hooks["message"] = []


def register(tracer, probe):
    # GOOD: the one sanctioned subscription point
    tracer.engine.add_hook(probe)


def record(histogram, phase, us):
    # GOOD: the label value arrives from the enum, not a literal
    histogram.labels(phase=phase.value, app="other").observe(us)
