"""CSR graphs in distributed memory, with per-node vertex partitions.

Polymer partitions the graph per NUMA node and co-locates each partition
with the threads that process it; on DeX the same layout keeps each
node's adjacency pages and vertex-state pages exclusively on that node
after warm-up.  The adjacency arrays are read-only, so their pages
replicate once and stay cached everywhere they are needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.runtime.alloc import MemoryAllocator
from repro.runtime.array import DistArray, alloc_array


@dataclass
class DistGraph:
    """A CSR graph living in the distributed address space."""

    n_vertices: int
    n_edges: int
    indptr: DistArray    # int64[n_vertices + 1]
    indices: DistArray   # int64[n_edges]
    #: host-side copies for partition planning (setup-time only; worker
    #: threads read the DSM arrays)
    host_indptr: np.ndarray
    host_indices: np.ndarray


def load_graph(
    alloc: MemoryAllocator,
    indptr: np.ndarray,
    indices: np.ndarray,
) -> Tuple[DistGraph, "np.ndarray"]:
    """Allocate the CSR arrays (page-aligned; the adjacency layout is not
    what the §IV optimizations change) and return the graph plus the data
    that must be written into it by a setup thread."""
    n = len(indptr) - 1
    graph = DistGraph(
        n_vertices=n,
        n_edges=len(indices),
        indptr=alloc_array(alloc, np.int64, n + 1, name="indptr",
                           page_aligned=True),
        indices=alloc_array(alloc, np.int64, max(len(indices), 1),
                            name="indices", page_aligned=True),
        host_indptr=indptr,
        host_indices=indices,
    )
    return graph, indices


def edge_balanced_partitions(
    indptr: np.ndarray, parts: int
) -> List[Tuple[int, int]]:
    """Partition vertices so each part holds ~the same number of edges
    (Polymer's balance criterion; block partitions of an R-MAT graph are
    badly skewed otherwise)."""
    n = len(indptr) - 1
    total = int(indptr[-1])
    bounds = [0]
    for p in range(1, parts):
        target = total * p // parts
        bounds.append(int(np.searchsorted(indptr, target)))
    bounds.append(n)
    # ensure monotonicity under skew
    for i in range(1, len(bounds)):
        bounds[i] = max(bounds[i], bounds[i - 1])
    return [(bounds[i], bounds[i + 1]) for i in range(parts)]
