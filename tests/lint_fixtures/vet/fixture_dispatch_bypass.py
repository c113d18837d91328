"""Seeded bug: trace-injection coverage holes.

Three holes: a helper that delivers by poking the router's
``dispatch`` directly (skipping the fabric entirely), a fabric-shaped
class whose ``send`` frontend forgets to stamp trace context before
handing off to its ``_send_impl``, and one whose traced twin
``_send_traced`` forgets it.
"""


class ShortcutMailbox:
    """Delivers locally by calling the router directly — bypassing the
    fabric's trace stamping and chaos interposition."""

    def __init__(self, router):
        self.router = router

    def deliver(self, msg):
        self.router.dispatch(msg)  # BUG: bypasses Tracer.inject


class BareFabric:
    def send(self, msg):  # BUG: no Tracer.inject before handoff
        self._send_impl(msg)

    def _send_impl(self, msg):
        self.outbox = msg


class TwinFabric:
    def send(self, msg):  # BUG: neither send nor its traced twin injects
        if self.tracer is None:
            return self._send_impl(msg)
        return self._send_traced(msg)

    def _send_traced(self, msg):
        return self._send_impl(msg)

    def _send_impl(self, msg):
        self.outbox = msg
