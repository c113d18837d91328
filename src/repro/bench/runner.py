"""Run (app, variant, node-count) points and normalize like Figure 2.

Two workload scales are provided: ``small`` finishes a full sweep in
seconds (CI-friendly), ``paper`` uses each app's default (scaled-down but
contention-faithful) workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.apps import get_app
from repro.apps.common import AppResult
from repro.params import SimParams

#: per-app workload overrides for the fast scale
SCALE_PRESETS: Dict[str, Dict[str, Dict]] = {
    # sizes chosen as the smallest that keep each app's Figure 2 shape:
    # below them, fixed costs (migration, barriers, cold page transfer)
    # swamp the effects the figure is about
    "small": {
        "GRP": {"text_size": 2 * 1024 * 1024},
        "KMN": {"n_points": 80_000, "max_iters": 2},
        "BT": {"grid_cells": 262_144, "iters": 2},
        "EP": {"n_pairs": 480_000},
        "FT": {"rows": 256, "cols": 256, "iters": 1},
        "BLK": {"n_options": 160_000},
        "BFS": {"n_vertices": 16_384, "n_edges": 60_000},
        "BP": {"n_vertices": 65_536, "n_edges": 1_000_000, "iters": 2},
    },
    "paper": {name: {} for name in
              ("GRP", "KMN", "BT", "EP", "FT", "BLK", "BFS", "BP")},
}


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
    #: owner-hint cache hit rate (None when no resolution ran: single
    #: node, or the origin directory backend)
    hint_hit_rate: Optional[float] = None


def _mean_fault_us(result: AppResult) -> float:
    records = result.stats.fault_latencies
    if not records:
        return 0.0
    return sum(r.latency_us for r in records) / len(records)


def run_point(app: str, variant: str, num_nodes: int, scale: str = "small",
              directory: Optional[str] = None, **overrides) -> AppResult:
    """One application run.  *directory* selects the coherence-directory
    backend ("origin" | "sharded") without hand-building SimParams; an
    explicit ``params=`` override wins."""
    module = get_app(app)
    kwargs = dict(SCALE_PRESETS[scale].get(app.upper(), {}))
    kwargs.update(overrides)
    if directory is not None and "params" not in kwargs:
        kwargs["params"] = SimParams(directory=directory)
    return module.run(num_nodes=num_nodes, variant=variant, **kwargs)


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
