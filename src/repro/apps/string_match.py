"""GRP — string match (§V, "simple" category).

Looks up key strings in a text and counts their occurrences; the text is
partitioned and scanned by worker threads in parallel.

* **initial** port: two added lines (migrate out / back).  The original
  program's sins stay: all thread argument blocks live on a single page,
  and every occurrence found bumps a *global* counter — "the original
  implementations interfere with global variables — GRP updates a global
  variable when it finds an occurrence" (§V-C).  On DeX that page
  ping-pongs between all nodes.
* **optimized** port: thread arguments and counters are page-aligned via
  ``posix_memalign``-style allocation, and "each thread stages its updates
  locally before updating the shared global variables once after the
  computation" (§V-C).
"""

from __future__ import annotations

from typing import Generator, Sequence, Tuple

import numpy as np

from repro.apps import workloads
from repro.apps.common import AdaptationInfo, AppResult, Launch, finish
from repro.runtime.array import alloc_array

#: scan cost: ~0.02 us/byte ≈ 50 MB/s per worker thread (multi-key
#: byte-wise matching, as in the Phoenix string_match kernel)
CPU_US_PER_BYTE = 0.02
CHUNK = 64 * 1024

ADAPTATION = AdaptationInfo(
    multithread_impl="pthread",
    initial_loc=2,
    optimized_loc=18,
    notes="1 line each for forward/backward migration; optimization "
    "replaces malloc with posix_memalign for thread args and stages "
    "occurrence-counter updates locally",
)


def _count_starting_before(window: bytes, key: bytes, limit: int) -> int:
    """Occurrences of *key* starting at offsets < *limit* (the partition's
    own territory; the tail overlap belongs to the next partition)."""
    count = 0
    pos = window.find(key)
    while 0 <= pos < limit:
        count += 1
        pos = window.find(key, pos + 1)
    return count


#: the calibrated input seed, unless the spec or SimParams names one
INPUT_SEED = 7


def run(
    job: Launch,
    text_size: int = 16 * 1024 * 1024,
    keys: Sequence[bytes] = workloads.DEFAULT_KEYS,
    plant_every: int = 400,
) -> AppResult:
    """Run GRP; returns an :class:`AppResult` whose output is the list of
    per-key occurrence counts (verified against the reference scan)."""
    alloc, num_threads, optimized = job.alloc, job.num_threads, job.optimized

    text = workloads.text_corpus(text_size, keys, seed=job.seed,
                                 plant_every=plant_every)
    expected = reference(text_size, keys, job.seed, plant_every)
    max_key = max(len(k) for k in keys)

    # ---- layout (where the variants differ) -----------------------------
    text_arr = alloc_array(alloc, np.uint8, len(text), name="text",
                           page_aligned=True)
    if optimized:
        # page-aligned counters and per-thread argument blocks
        counters = alloc_array(alloc, np.int64, len(keys), name="counters",
                               segment="globals", page_aligned=True)
        args = [
            alloc_array(alloc, np.int64, 2, name=f"args{i}",
                        segment="globals", page_aligned=True)
            for i in range(num_threads)
        ]
    else:
        # the unmodified layout: counters and every thread's argument block
        # bump-allocated together -> all on one or two pages
        counters = alloc_array(alloc, np.int64, len(keys), name="counters",
                               segment="globals")
        args = [
            alloc_array(alloc, np.int64, 2, name=f"args{i}", segment="globals")
            for i in range(num_threads)
        ]

    part = (len(text) + num_threads - 1) // num_threads

    def body(ctx, wid: int) -> Generator:
        lo = int((yield from args[wid].get(ctx, 0, site="grp:args")))
        hi = int((yield from args[wid].get(ctx, 1, site="grp:args")))
        local = [0] * len(keys)
        pos = lo
        while pos < hi:
            take = min(CHUNK, hi - pos)
            window = min(take + max_key - 1, len(text) - pos)
            raw = yield from ctx.read(text_arr.addr + pos, window,
                                      site="grp:scan")
            if optimized:
                # scan the chunk, staging counts locally (§V-C)
                yield from ctx.compute(cpu_us=take * CPU_US_PER_BYTE,
                                       mem_bytes=take)
                for k, key in enumerate(keys):
                    local[k] += _count_starting_before(raw, key, take)
            else:
                # the original program bumps the shared counter the moment
                # each occurrence is found, mid-scan: the scan compute is
                # interleaved with the global updates
                hits = []
                for k, key in enumerate(keys):
                    p = raw.find(key)
                    while 0 <= p < take:
                        hits.append((p, k))
                        p = raw.find(key, p + 1)
                hits.sort()
                slice_us = take * CPU_US_PER_BYTE / (len(hits) + 1)
                slice_bytes = take / (len(hits) + 1)
                for _, k in hits:
                    yield from ctx.compute(cpu_us=slice_us,
                                           mem_bytes=slice_bytes)
                    yield from counters.add(ctx, k, 1, site="grp:count")
                yield from ctx.compute(cpu_us=slice_us, mem_bytes=slice_bytes)
            pos += take
        if optimized:
            for k, found in enumerate(local):
                if found:
                    yield from counters.add(ctx, k, found, site="grp:count")

    def setup(ctx) -> Generator:
        yield from text_arr.write(ctx, 0,
                                  np.frombuffer(text, dtype=np.uint8))
        for i in range(num_threads):
            yield from args[i].write(
                ctx, 0,
                np.array([i * part, min((i + 1) * part, len(text))],
                         dtype=np.int64),
            )

    def collect(ctx) -> Generator:
        counts = [int(v) for v in (yield from counters.read(ctx))]
        return counts, counts == list(expected)

    return finish(job, body, collect, setup)


@workloads.memoised
def reference(text_size: int = 16 * 1024 * 1024,
              keys: Sequence[bytes] = workloads.DEFAULT_KEYS,
              seed: int = 7, plant_every: int = 400) -> Tuple[int, ...]:
    """The plain single-threaded answer."""
    return workloads.count_occurrences(
        workloads.text_corpus(text_size, keys, seed=seed,
                              plant_every=plant_every), keys
    )
