"""The eight evaluation applications (§V), each in three variants:

* ``unmodified`` — the original single-machine program: worker threads stay
  at the origin (the 1-node baseline every Figure 2 point is normalized to);
* ``initial`` — the paper's first port: thread-migration calls inserted at
  parallel-region boundaries, nothing else changed (Table I, "Initial");
* ``optimized`` — after the §IV profile-guided fixes: page-aligned
  allocation of per-node data, local staging of global counters/flags,
  separated read-only parameter pages, stack arguments hoisted (Table I,
  "Optimized").

The variants differ by *real* allocation and access-pattern changes — false
sharing emerges from layout, it is not a performance knob.  Every app
checks its output against a plain single-threaded reference, so the DSM is
correctness-bearing.

Applications:

=======  =====================================  ==========================
GRP      :mod:`repro.apps.string_match`         shared-memory data processing
KMN      :mod:`repro.apps.kmeans`               shared-memory data processing
BT       :mod:`repro.apps.npb.bt`               NPB-like scientific kernel
EP       :mod:`repro.apps.npb.ep`               NPB-like scientific kernel
FT       :mod:`repro.apps.npb.ft`               NPB-like scientific kernel
BLK      :mod:`repro.apps.blackscholes`         PARSEC financial kernel
BFS      :mod:`repro.apps.polymer.bfs`          NUMA-aware graph analytics
BP       :mod:`repro.apps.polymer.bp`           NUMA-aware graph analytics
=======  =====================================  ==========================

Two 2-node microbenchmarks run through the same :class:`RunSpec` (they
are not in ``APP_NAMES``, the Figure 2 set): ``pagefault``
(:mod:`repro.apps.pagefault`, §V-D's atomic-add ping-pong) and ``micro``
(:mod:`repro.apps.chaos_micro`, every request-class control message).
"""

from repro.apps.common import (
    APP_NAMES,
    AdaptationInfo,
    AppResult,
    RunSpec,
    VARIANTS,
    get_app,
)

__all__ = ["APP_NAMES", "AdaptationInfo", "AppResult", "RunSpec", "VARIANTS",
           "get_app"]
