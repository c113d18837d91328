"""The reference message carrier: the generator ``Network._wire`` run as
its own process, which production keeps only for traced and fault-injected
runs.  Everywhere else a message is carried by a ``_Flight`` whose stages
were derived from that generator one yield at a time; the differential
tests run both and require the same dispatch order, sequence numbers and
sim times.
"""

from __future__ import annotations

from repro.net import fabric


def install(monkeypatch) -> None:
    """Make every fabric carry its messages with the generator from here
    on.  ``_send_impl`` looks its carrier up by name when it posts, and
    the two carriers share one signature."""
    monkeypatch.setattr(fabric, "_Flight", fabric.Network._wire_process)
