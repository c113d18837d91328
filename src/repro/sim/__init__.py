"""Discrete-event simulation kernel.

This package is the bottom-most substrate of the reproduction: a small,
deterministic discrete-event engine in the style of SimPy.  Simulated
activities are Python generators that ``yield`` either a number of
microseconds (a private sleep) or a waitable (events, other processes,
resource requests, a ``Timeout`` for a deadline somebody else races or
cancels); the engine advances a virtual clock in microseconds and resumes
generators when what they yielded completes.

Everything above — the interconnect, the virtual-memory subsystem, the DeX
protocol, and the applications — runs as processes on this engine.
"""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Engine,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from repro.sim.resources import FairShareResource, Resource, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "Engine",
    "Event",
    "FairShareResource",
    "Interrupt",
    "Process",
    "Resource",
    "SimulationError",
    "Store",
    "Timeout",
]
