"""Clean fabric-shaped module: frontends stamp trace context, internals
stay inside the module.  Scanned alone it must produce zero violations;
paired with ``fixture_chaos_bypass.py`` / ``fixture_flight_bypass.py`` it
provides the ``_send_impl`` / ``_Flight`` definitions that make the
cross-module bypasses visible.
"""


class _Flight:
    """A message between post and delivery; constructing one launches it."""

    def __init__(self, fabric, msg):
        fabric.in_flight.append(msg)


class MiniFabric:
    def send(self, msg):
        self.tracer.inject(msg)
        self._send_impl(msg)

    def _send_impl(self, msg):
        self.outbox.append(msg)
        _Flight(self, msg)


class TwinFabric:
    """The untraced send hands back ``_send_impl`` itself; the traced twin
    stamps the trace context."""

    def send(self, msg):
        if self.tracer is None:
            return self._send_impl(msg)
        return self._send_traced(msg)

    def _send_traced(self, msg):
        self.tracer.inject(msg)
        return self._send_impl(msg)

    def _send_impl(self, msg):
        self.outbox.append(msg)
