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
``1``/``all`` turns both on, ``race`` and ``deadlock`` select one.  An
enabled checker is an observer of its process (``proc.add_hook``); when
disabled (the default) no checker object exists and every probe list it
would be on is empty.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

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


def make_sanitizers(proc: "DexProcess") -> List[object]:
    """The checkers *proc*'s sanitize mode enables (race sanitizer first),
    for the process to ``add_hook``."""
    mode = resolve_switch("sanitize", proc.cluster.params.sanitize)
    checkers: List[object] = []
    if mode in ("all", "race"):
        checkers.append(CoherenceSanitizer(proc))
    if mode in ("all", "deadlock"):
        checkers.append(DeadlockDetector(proc))
    return checkers
