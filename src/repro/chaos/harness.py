"""Run a workload under a chaos scenario and check it still finishes right.

:func:`run_under_chaos` runs any :class:`~repro.apps.common.RunSpec` —
a Figure-2 app or a micro (``micro`` sends every request-class control
message, so a "drop each message type once" sweep has something to drop)
— with a fail-stop restart policy: when a run dies of
:class:`NodeFailedError` it is re-run on a fresh cluster built from the
same spec with the *same* scenario object.  Rule state
(``matched``/``fired``) is shared across attempts, so a crash that already
fired stays consumed and the restarted run completes.  Every cluster the
harness builds is closed once its controller's report is read.

``python -m repro.chaos`` wraps it (see ``__main__.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional

from repro.apps.common import RunSpec
from repro.chaos import resolve_scenario
from repro.chaos.scenario import ChaosScenario
from repro.core.errors import NodeFailedError


@dataclass
class ChaosRunReport:
    """Outcome of :func:`run_under_chaos`."""

    app: str
    variant: str
    num_nodes: int
    #: per-attempt outcome lines ("completed" or the failure diagnostic)
    attempts: List[str] = field(default_factory=list)
    #: the successful AppResult, or None if every attempt failed
    result: Optional[Any] = None
    #: the last attempt's controller report (injection/retry/lease counters)
    report: Optional[Dict[str, Any]] = None

    @property
    def completed(self) -> bool:
        return self.result is not None

    @property
    def correct(self) -> bool:
        """True when the app completed *and* verified its own output."""
        return self.result is not None and bool(self.result.correct)


def run_under_chaos(
    spec: RunSpec,
    scenario: Optional[ChaosScenario] = None,
    *,
    sanitize: bool = True,
    max_restarts: int = 1,
) -> ChaosRunReport:
    """Run *spec* under *scenario* (default: the spec's own, else an empty
    one); on fail-stop, restart on a fresh cluster up to *max_restarts*
    times (consumed crash rules do not re-fire).  The final attempt's
    exception propagates when the budget is exhausted, carrying the
    controller's report as ``chaos_report``, so an un-survivable scenario
    is loud, not silently wrong."""
    if scenario is None:
        # resolved once: every attempt shares the rules' consumed state
        scenario = resolve_scenario(spec.params()) or ChaosScenario()
    laid = {"chaos_scenario": scenario}
    if sanitize:
        laid["sanitize"] = "1"
    spec = replace(spec, base=spec.params().copy(**laid))
    outcome = ChaosRunReport(app=spec.app, variant=spec.variant,
                             num_nodes=spec.nodes)
    for attempt in range(1, max_restarts + 2):
        cluster = spec.cluster()
        try:
            outcome.result = spec.run(cluster=cluster)
        except NodeFailedError as err:
            outcome.attempts.append(f"attempt {attempt}: {err}")
            err.chaos_report = cluster.chaos.report()
            if attempt > max_restarts:
                raise
        else:
            outcome.attempts.append(f"attempt {attempt}: completed")
            return outcome
        finally:
            outcome.report = cluster.chaos.report()
            cluster.close()
    return outcome  # pragma: no cover - loop always returns or raises
