"""Open-loop arrival processes for DexServe.

A client population is modelled as a rate curve, not as a pool of
blocked callers: arrivals are generated up front from the curve and a
seed, and the injector fires them at those absolute simulated times
*whether or not* earlier requests have completed.  That open-loop shape
is the point — a closed-loop driver would slow its offered load the
moment queues build, hiding exactly the queueing delay a serving system
needs to report (Schroeder et al.'s closed/open distinction; the
ROADMAP's queue-based-load-leveling pattern assumes open arrivals).

Four curve kinds, all deterministic for a fixed ``(curve, seed)``:

* ``constant`` — evenly spaced at ``1e6 / rate`` microseconds;
* ``poisson``  — exponential interarrivals at the same mean, drawn from
  a ``numpy`` generator seeded by the caller (seed-reproducible);
* ``burst``    — piecewise-constant: the base spacing everywhere except
  a ``[burst_at_us, burst_at_us + burst_for_us)`` window running at
  ``burst_x`` times the base rate;
* ``ramp``     — rate climbs linearly from ``rate`` to ``ramp_to``
  across the whole request count (closed-form inversion of the
  cumulative arrival function, so millions of arrivals vectorize).

Times are offsets in microseconds from the start of the serving phase;
the injector adds the phase's absolute start time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Tuple

import numpy as np


@dataclass(frozen=True)
class ArrivalCurve:
    """One tenant's offered-load specification (see module docstring)."""

    kind: str = "constant"
    #: base arrival rate, requests per second
    rate: float = 10_000.0
    #: total arrivals the curve produces
    requests: int = 1_000
    #: burst window (burst curves only)
    burst_at_us: float = 50_000.0
    burst_for_us: float = 20_000.0
    burst_x: float = 8.0
    #: final rate of a ramp (0 = four times the base rate)
    ramp_to: float = 0.0

    def validate(self) -> "ArrivalCurve":
        if self.kind not in SHAPES:
            raise ValueError(f"unknown arrival curve {self.kind!r} "
                             f"(one of {tuple(SHAPES)})")
        if self.rate <= 0.0:
            raise ValueError(f"arrival rate must be positive, got {self.rate}")
        if self.requests < 1:
            raise ValueError(f"requests must be >= 1, got {self.requests}")
        if self.shape.bursty:
            if self.burst_x <= 1.0:
                raise ValueError("burst_x must exceed 1.0")
            if self.burst_for_us <= 0.0:
                raise ValueError("burst_for_us must be positive")
        return self

    @property
    def shape(self) -> "Shape":
        return SHAPES[self.kind]

    @property
    def ramp_final(self) -> float:
        return self.ramp_to if self.ramp_to > 0.0 else 4.0 * self.rate

    def span_us(self) -> float:
        """Nominal duration of the whole curve in microseconds."""
        if self.shape.ramps:
            # area under the linear rate curve equals the request count
            mean_rate = (self.rate + self.ramp_final) / 2.0
            return self.requests * 1e6 / mean_rate
        return self.requests * 1e6 / self.rate

    def scaled(self, requests: int) -> "ArrivalCurve":
        return replace(self, requests=requests)


def _constant_times(curve: ArrivalCurve, seed: int) -> np.ndarray:
    spacing = 1e6 / curve.rate
    return np.arange(curve.requests, dtype=np.float64) * spacing


def _poisson_times(curve: ArrivalCurve, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1e6 / curve.rate, size=curve.requests)
    return np.cumsum(gaps)


def _burst_times(curve: ArrivalCurve, seed: int) -> np.ndarray:
    base_gap = 1e6 / curve.rate
    burst_gap = base_gap / curve.burst_x
    times = np.empty(curve.requests, dtype=np.float64)
    t = 0.0
    i = 0
    burst_end = curve.burst_at_us + curve.burst_for_us
    while i < curve.requests:
        # emit a whole segment at once: everything up to the next rate edge
        if t < curve.burst_at_us:
            gap, edge = base_gap, curve.burst_at_us
        elif t < burst_end:
            gap, edge = burst_gap, burst_end
        else:
            gap, edge = base_gap, np.inf
        if np.isinf(edge):
            count = curve.requests - i
        else:
            count = min(int((edge - t) // gap) + 1, curve.requests - i)
        times[i : i + count] = t + np.arange(count, dtype=np.float64) * gap
        t = times[i + count - 1] + gap
        i += count
    return times


def _ramp_times(curve: ArrivalCurve, seed: int) -> np.ndarray:
    # invert the cumulative arrival function of a linear rate curve:
    # with r(t) = a + b t (per-us rates), arrival k solves
    # a t + b t^2 / 2 = k
    span = curve.span_us()
    a = curve.rate / 1e6
    b = (curve.ramp_final - curve.rate) / 1e6 / span
    k = np.arange(curve.requests, dtype=np.float64)
    if abs(b) < 1e-18:
        return k / a
    return (-a + np.sqrt(a * a + 2.0 * b * k)) / b


def arrival_times(curve: ArrivalCurve, seed: int = 0) -> np.ndarray:
    """The curve's arrival offsets in microseconds, nondecreasing, length
    ``curve.requests``.  Only ``poisson`` draws randomness; every kind is
    bit-identical for a fixed ``(curve, seed)``."""
    return curve.validate().shape.times(curve, seed)


class Shape(NamedTuple):
    """What a curve kind decides: its arrival offsets for ``(curve,
    seed)``, whether it has a burst window, and whether it ramps."""

    times: Callable[[ArrivalCurve, int], np.ndarray]
    bursty: bool = False
    ramps: bool = False


#: curve kind -> its shape
SHAPES = {"constant": Shape(_constant_times), "poisson": Shape(_poisson_times),
          "burst": Shape(_burst_times, bursty=True),
          "ramp": Shape(_ramp_times, ramps=True)}


def parse_curve(
    spec: str, rate: float, requests: int,
    burst_at_us: float = 50_000.0,
    burst_for_us: float = 20_000.0,
    burst_x: float = 8.0,
) -> ArrivalCurve:
    """CLI helper: an :class:`ArrivalCurve` from a kind name, with the
    shared rate/request knobs applied."""
    return ArrivalCurve(
        kind=spec, rate=rate, requests=requests,
        burst_at_us=burst_at_us, burst_for_us=burst_for_us, burst_x=burst_x,
    ).validate()


def curve_window(curve: ArrivalCurve) -> Tuple[float, float]:
    """The burst window as (start_us, end_us); the whole span for
    non-burst curves (used by report windowing)."""
    if curve.shape.bursty:
        return curve.burst_at_us, curve.burst_at_us + curve.burst_for_us
    return 0.0, curve.span_us()
