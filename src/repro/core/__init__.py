"""The DeX core: thread migration + distributed shared memory (§III).

Public surface:

* :class:`DexCluster` — a simulated rack with DeX loaded on every node;
* :class:`DexProcess` — a process whose threads can span the rack;
* :class:`ThreadContext` — the handle application code programs against;
* the protocol internals (:class:`ConsistencyProtocol`, the
  :class:`CoherenceDirectory` backends, :class:`FaultHandler`, ...) for
  tests, tools, and ablation studies.
"""

from repro.core.cluster import DexCluster, DexNode
from repro.core.delegation import DelegationService
from repro.core.directory import (
    DIRECTORY_BACKENDS,
    CoherenceDirectory,
    DirectoryShard,
    PageEntry,
)
from repro.core.errors import DexError, MigrationError, ProtocolError, SegmentationFault
from repro.core.fault import FaultHandler, InFlightFault
from repro.core.futex import FutexTable
from repro.core.migration import MigrationService
from repro.core.process import (
    GLOBALS_BASE,
    GLOBALS_SIZE,
    HEAP_BASE,
    MMAP_BASE,
    STACK_BASE,
    STACK_SIZE,
    DexProcess,
    NodeProcessState,
)
from repro.core.protocol import ConsistencyProtocol
from repro.core.stats import DexStats, FaultRecord, MigrationRecord
from repro.core.thread import DexThread, ThreadContext

__all__ = [
    "CoherenceDirectory",
    "ConsistencyProtocol",
    "DIRECTORY_BACKENDS",
    "DirectoryShard",
    "DelegationService",
    "DexCluster",
    "DexError",
    "DexNode",
    "DexProcess",
    "DexStats",
    "DexThread",
    "FaultHandler",
    "FaultRecord",
    "FutexTable",
    "GLOBALS_BASE",
    "GLOBALS_SIZE",
    "HEAP_BASE",
    "InFlightFault",
    "MMAP_BASE",
    "MigrationError",
    "MigrationRecord",
    "MigrationService",
    "NodeProcessState",
    "PageEntry",
    "ProtocolError",
    "STACK_BASE",
    "STACK_SIZE",
    "SegmentationFault",
    "ThreadContext",
]
