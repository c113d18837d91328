"""DexServe workload kinds: each kind is decided here and nowhere else.

:data:`KINDS` maps a :attr:`TenantSpec.workload` name to its entry, which
owns its default sizes (``items``, ``request_items``), its host-side
input and the expected answer of one request slot ``[lo, hi)``
(``inputs``, ``reference``), the arrays a tenant allocates in order
(``residents``), its request body (``query``: one chunk of the batch
app's worker body — same kernels, costs and DSM access pattern — as a
generator a serving thread drives) and its result check (``check``).
The tenant runs every kind the same way, so a new kind is one entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, Optional, Tuple

import numpy as np

from repro.apps import kmeans, workloads
from repro.apps.blackscholes import (
    CPU_US_PER_OPTION, FIELDS, _price, _price_arrays)
from repro.apps.string_match import CPU_US_PER_BYTE, _count_starting_before

KMN_K = 8
KMN_DIM = 3
KEYS = workloads.DEFAULT_KEYS
MAX_KEY = max(len(key) for key in KEYS)


@dataclass(frozen=True)
class Resident:
    """One array of a tenant's working set: allocated page-aligned in
    *segment*, written with *values* at install (None: left zero), and
    faulted in at every serving node before serving starts when *warm*."""

    name: str
    dtype: Any
    length: int
    values: Optional[np.ndarray] = None
    segment: str = "heap"
    warm: bool = True


class Kind:
    """One entry of :data:`KINDS` (see the module docstring); subclasses
    define ``inputs``, ``residents``, ``reference`` and ``query``."""

    name = ""
    #: default resident working-set size (points / bytes / options)
    items = 0
    #: default items per request
    request_items = 0

    def check(self, result: Any, expected: Any) -> bool:
        """Whether a request's *result* is its slot's *expected* answer."""
        return list(result) == list(expected)


class Kmn(Kind):
    """KMN model queries: classify a slice of points against the current
    centroids; the answer is the slice's cluster labels."""

    name, items, request_items = "kmn", 32_768, 256

    def inputs(self, items: int, seed: int) -> Tuple[np.ndarray, np.ndarray]:
        points = workloads.clustered_points(items, KMN_K, seed=seed + 11)
        return points, points[:KMN_K].copy()

    def residents(self, inputs) -> Tuple[Resident, ...]:
        points, centers = inputs
        return (Resident("points", np.float64, points.size, points.ravel()),
                Resident("centroids", np.float64, centers.size,
                         centers.ravel(), segment="globals"))

    def reference(self, inputs, lo: int, hi: int) -> np.ndarray:
        points, centers = inputs
        return kmeans.sq_dist(points[lo:hi], centers).argmin(axis=1)

    def query(self, ctx, arrays, lo: int, hi: int) -> Generator:
        centers = yield from arrays["centroids"].read(
            ctx, site="serve:kmn:centers")
        raw = yield from arrays["points"].read(
            ctx, lo * KMN_DIM, hi * KMN_DIM, site="serve:kmn:points")
        yield from ctx.compute(cpu_us=(hi - lo) * kmeans.CPU_US_PER_POINT,
                               mem_bytes=(hi - lo) * KMN_DIM * 8)
        return kmeans.sq_dist(raw.reshape(hi - lo, KMN_DIM),
                              centers.reshape(KMN_K, KMN_DIM)).argmin(axis=1)

    def check(self, result: Any, expected: Any) -> bool:
        return bool(np.array_equal(result, expected))


class Grp(Kind):
    """GRP lookups: count the keys' occurrences starting in a slice of the
    text.  Read-only: the counts go back to the client, as in the
    optimized batch variant."""

    name, items, request_items = "grp", 262_144, 4096
    scan_site = "serve:grp:scan"

    def inputs(self, items: int, seed: int) -> bytes:
        return workloads.text_corpus(items, seed=seed + 7, plant_every=200)

    def residents(self, text: bytes) -> Tuple[Resident, ...]:
        return (Resident("text", np.uint8, len(text),
                         np.frombuffer(text, dtype=np.uint8)),)

    def reference(self, text: bytes, lo: int, hi: int) -> list:
        return [_count_starting_before(text[lo:hi + MAX_KEY - 1], key, hi - lo)
                for key in KEYS]

    def query(self, ctx, arrays, lo: int, hi: int) -> Generator:
        text = arrays["text"]
        take = hi - lo
        window = min(take + MAX_KEY - 1, text.length - lo)
        raw = yield from ctx.read(text.addr + lo, window, site=self.scan_site)
        yield from ctx.compute(cpu_us=take * CPU_US_PER_BYTE, mem_bytes=take)
        return [_count_starting_before(raw, key, take) for key in KEYS]


class Scan(Grp):
    """String-match scans: a GRP lookup that also folds its counts into the
    shared ``hits`` counters.  It writes shared state on every request —
    the contended tenant shape, as the initial batch variant's global
    counter updates do — and ``hits`` is left cold, so requests fault."""

    name = "scan"
    scan_site = "serve:scan:scan"

    def residents(self, text: bytes) -> Tuple[Resident, ...]:
        return (*super().residents(text),
                Resident("hits", np.int64, len(KEYS), segment="globals",
                         warm=False))

    def query(self, ctx, arrays, lo: int, hi: int) -> Generator:
        found = yield from super().query(ctx, arrays, lo, hi)
        for k, count in enumerate(found):
            if count:
                yield from arrays["hits"].add(ctx, k, count,
                                              site="serve:scan:count")
        return found


class Blk(Kind):
    """BLK pricing calls: price a slice of options.  The five input fields
    and the call/put flags come through the DSM; the prices go back to
    the client, not to shared memory."""

    name, items, request_items = "blk", 65_536, 512

    def inputs(self, items: int, seed: int) -> workloads.OptionBatch:
        return workloads.option_batch(items, seed=seed + 13)

    def residents(self, batch) -> Tuple[Resident, ...]:
        return (*(Resident(name, np.float64, len(batch), getattr(batch, name))
                  for name in FIELDS),
                Resident("flags", np.uint8, len(batch),
                         batch.is_call.view(np.uint8)))

    def reference(self, batch, lo: int, hi: int) -> np.ndarray:
        return _price(batch, lo, hi)

    def query(self, ctx, arrays, lo: int, hi: int) -> Generator:
        take = hi - lo
        values = []
        for name in FIELDS:
            values.append((yield from arrays[name].read(
                ctx, lo, hi, site="serve:blk:inputs")))
        raw_flags = yield from ctx.read(arrays["flags"].addr + lo, take,
                                        site="serve:blk:inputs")
        is_call = np.frombuffer(raw_flags, dtype=np.uint8).astype(bool)
        yield from ctx.compute(cpu_us=take * CPU_US_PER_OPTION,
                               mem_bytes=take * 48)
        return _price_arrays(*values, is_call)

    def check(self, result: Any, expected: Any) -> bool:
        return bool(np.allclose(result, expected))


#: workload name -> its entry, in the order error messages list them
KINDS: Dict[str, Kind] = {kind.name: kind
                          for kind in (Kmn(), Grp(), Blk(), Scan())}
