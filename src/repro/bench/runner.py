"""The DexBench harness's spelling of :meth:`RunSpec.run` as a call.

Two workload scales are provided (``repro.apps.common.SCALE_PRESETS``):
``small`` finishes a full sweep in seconds (CI-friendly), ``paper`` uses
each app's default (scaled-down but contention-faithful) workload.
"""

from __future__ import annotations

from typing import Optional

from repro.apps.common import SCALE_PRESETS, AppResult, RunSpec


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
