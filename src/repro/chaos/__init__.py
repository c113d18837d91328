"""DexChaos: deterministic fault injection and fail-stop recovery.

The subsystem has three pieces:

* :mod:`repro.chaos.scenario` — the declarative fault spec: which messages
  to drop/delay/duplicate/reorder, which links to degrade, which nodes to
  crash, scheduled by sim time or by message predicate.  Seedable and
  bit-for-bit reproducible.
* :mod:`repro.chaos.controller` — the runtime: injects the faults into the
  fabric, runs the lease/keepalive failure detector at the origin, and on
  fail-stop drives :mod:`repro.chaos.recovery`.
* ``python -m repro.chaos`` — the harness: runs any Figure-2 application
  under a scenario (sanitizer on) and checks end-to-end correctness.

**Zero cost when off.**  Chaos is enabled only when ``SimParams.chaos`` /
``DEX_CHAOS`` or an explicit scenario says so; otherwise the cluster keeps
``chaos=None`` and every hot-path hook is a single ``is None`` test, the
transport takes its original non-retrying path, and sim time is
bit-identical to a build without the subsystem.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.chaos.controller import ChaosController, ThreadHalt
from repro.chaos.scenario import ChaosError, ChaosRule, ChaosScenario
from repro.params import resolve_switch

if TYPE_CHECKING:  # pragma: no cover
    from repro.params import SimParams

__all__ = [
    "ChaosController",
    "ChaosError",
    "ChaosRule",
    "ChaosRunReport",
    "ChaosScenario",
    "ThreadHalt",
    "resolve_scenario",
    "run_pagefault_micro",
    "run_under_chaos",
]

#: harness entry points, resolved lazily: the harness builds clusters, and
#: core.cluster imports this package at module load (chaos resolution), so
#: a top-level import would be circular
_HARNESS_EXPORTS = ("ChaosRunReport", "run_pagefault_micro", "run_under_chaos")


def __getattr__(name: str):
    if name in _HARNESS_EXPORTS:
        from repro.chaos import harness

        return getattr(harness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def resolve_scenario(params: "SimParams") -> Optional[ChaosScenario]:
    """The scenario to run under, or ``None`` when chaos is off.

    An explicit ``SimParams.chaos_scenario`` object wins; otherwise the
    ``chaos`` setting (or ``DEX_CHAOS``) either turns on an empty scenario
    (faults can still come from programmatic rules added later) or names a
    scenario JSON file to load.
    """
    if params.chaos_scenario is not None:
        scenario = params.chaos_scenario
        if not isinstance(scenario, ChaosScenario):
            raise ChaosError(
                f"chaos_scenario must be a ChaosScenario, got {type(scenario).__name__}"
            )
        return scenario.validate()
    mode = resolve_switch("chaos", params.chaos)
    if not mode:
        return None
    if mode == "on":
        return ChaosScenario()
    return ChaosScenario.from_file(mode)
