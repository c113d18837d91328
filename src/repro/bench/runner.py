"""Run (app, variant, node-count) points and normalize like Figure 2.

Two workload scales are provided (``repro.apps.common.SCALE_PRESETS``):
``small`` finishes a full sweep in seconds (CI-friendly), ``paper`` uses
each app's default (scaled-down but contention-faithful) workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.apps.common import SCALE_PRESETS, AppResult, RunSpec


@dataclass
class ScalingPoint:
    """One point of the Figure 2 sweep."""

    app: str
    variant: str
    num_nodes: int
    elapsed_us: float
    normalized: float  # vs. the unmodified 1-node run, higher is better
    correct: bool
    faults: int
    retries: int
    #: mean latency over every recorded fault (leaders and followers)
    mean_fault_us: float = 0.0
    #: share of remote homes resolved from a shard-map copy (None when
    #: no resolution ran: single node, or the origin directory backend)
    hint_hit_rate: Optional[float] = None


def _mean_fault_us(result: AppResult) -> float:
    records = result.stats.fault_latencies
    if not records:
        return 0.0
    return sum(r.latency_us for r in records) / len(records)


def run_point(app: str, variant: str, num_nodes: int, scale: str = "small",
              directory: Optional[str] = None, **overrides) -> AppResult:
    """One application run: :class:`RunSpec` spelled as a call.
    *directory* selects the coherence-directory backend ("origin" |
    "sharded") without hand-building SimParams (it is laid over a
    ``params=`` override); ``cluster=`` / ``tracer=`` go to the run, every
    other keyword to the app."""
    how = {key: overrides.pop(key) for key in ("cluster", "tracer")
           if key in overrides}
    spec = RunSpec(
        app, variant, num_nodes, scale,
        threads_per_node=overrides.pop("threads_per_node", 8),
        directory=directory, base=overrides.pop("params", None),
        overrides=overrides,
    )
    return spec.run(**how)


def _scaling_point(result: AppResult, baseline_us: float) -> ScalingPoint:
    return ScalingPoint(
        app=result.app.upper(),
        variant=result.variant,
        num_nodes=result.num_nodes,
        elapsed_us=result.elapsed_us,
        normalized=baseline_us / result.elapsed_us,
        correct=bool(result.correct),
        faults=result.stats.total_faults,
        retries=result.stats.fault_retries,
        mean_fault_us=_mean_fault_us(result),
        hint_hit_rate=result.stats.hint_hit_rate,
    )


def run_scaling(
    app: str,
    node_counts: Sequence[int] = (1, 2, 4, 8),
    variants: Sequence[str] = ("initial", "optimized"),
    scale: str = "small",
    directory: Optional[str] = None,
    **overrides,
) -> List[ScalingPoint]:
    """The Figure 2 series for one app: every (variant, nodes) point,
    normalized to the unmodified single-node baseline."""
    baseline = run_point(app, "unmodified", 1, scale, directory=directory,
                         **overrides)
    if baseline.correct is not True:
        raise AssertionError(f"{app}: baseline run produced a wrong answer")
    points = [_scaling_point(baseline, baseline.elapsed_us)]
    for variant in variants:
        for n in node_counts:
            result = run_point(app, variant, n, scale, directory=directory,
                               **overrides)
            points.append(_scaling_point(result, baseline.elapsed_us))
    return points
