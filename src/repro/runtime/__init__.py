"""The application-facing programming model.

This package is the analogue of libc + libpthread + the OpenMP runtime for
DeX applications:

* :mod:`repro.runtime.alloc` — ``malloc`` / ``posix_memalign`` over the
  simulated address space.  Allocation *layout* is what §IV is about:
  co-locating two threads' data on one page creates false sharing, and the
  optimized application variants differ from the initial ones exactly by
  their allocation and access patterns.
* :mod:`repro.runtime.array` — numpy-typed views over distributed memory,
  read and written chunk-wise through the fault path.
* :mod:`repro.runtime.sync` — Mutex and Barrier built on the distributed
  futex, usable unmodified from any node (§III-A's headline feature).
* :mod:`repro.runtime.openmp` — the ``parallel_region`` helper that mirrors
  the paper's conversion of OpenMP parallel regions (migrate out at region
  entry, back at region exit).
"""

from repro.runtime.alloc import MemoryAllocator
from repro.runtime.openmp import node_for_worker, parallel_region
from repro.runtime.sync import Barrier, Mutex

__all__ = [
    "Barrier",
    "DistArray",
    "MemoryAllocator",
    "Mutex",
    "node_for_worker",
    "parallel_region",
]


def __getattr__(name: str):
    if name == "DistArray":  # the one export that needs numpy
        from repro.runtime.array import DistArray

        return DistArray
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
