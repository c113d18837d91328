"""DexCheck: correctness tooling for the DeX reproduction.

Two cooperating dynamic checkers (see DESIGN.md §"Checking"; the static
rules live in :mod:`repro.vet`):

* :mod:`repro.check.sanitizer` — a dynamic happens-before **coherence
  sanitizer** built on vector clocks.  Protocol messages (grants,
  invalidations, home lookups/redirects) establish ordering edges; every
  shared-page access is checked against the last conflicting access, and
  the directory/PTE invariants are re-validated on every ownership
  transition instead of only at test teardown.
* :mod:`repro.check.waitfor` — an online **wait-for deadlock detector**
  covering futex waits, work-delegation round-trips, and leader-follower
  fault coalescing.

They are enabled per process by ``SimParams.sanitize`` or, when that is
left at ``None``, by the ``DEX_SANITIZE`` environment variable:
``1``/``all`` turns both on, ``race`` and ``deadlock`` select one.  When
disabled (the default) no checker objects exist and every instrumentation
site is a single attribute-is-None test.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from repro.check.sanitizer import CoherenceSanitizer, CoherenceViolation
from repro.check.waitfor import DeadlockDetector, DeadlockError
from repro.params import resolve_switch

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.process import DexProcess

__all__ = [
    "CoherenceSanitizer",
    "CoherenceViolation",
    "DeadlockDetector",
    "DeadlockError",
    "make_sanitizers",
]


def make_sanitizers(
    proc: "DexProcess",
) -> Tuple[Optional[CoherenceSanitizer], Optional[DeadlockDetector]]:
    """The (race sanitizer, deadlock detector) pair for *proc*, either of
    which is None when its mode is not enabled."""
    mode = resolve_switch("sanitize", proc.cluster.params.sanitize)
    races = CoherenceSanitizer(proc) if mode in ("all", "race") else None
    deadlocks = DeadlockDetector(proc) if mode in ("all", "deadlock") else None
    return races, deadlocks
