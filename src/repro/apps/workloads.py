"""Synthetic workload generators (the paper's inputs, scaled down).

* :func:`text_corpus` — stands in for the 8 GB Wikipedia text GRP scans;
* :func:`clustered_points` — the 5M-point 3-D k-means input;
* :func:`option_batch` — PARSEC blackscholes 'native'-style option batch;
* :func:`rmat_graph` — the R-MAT generator Polymer's inputs came from,
  with the Graph500 parameters the paper cites (a=0.57, b=0.19).

All generators are deterministic for a fixed seed, so each is built once
per process per spec (:func:`memoised`) and handed out read-only; the apps
memoise the expected answer derived from an input the same way.  DexServe
builds its tenants' inputs from the same generators; its request-sized
bodies live with its kinds table (``serve/kinds.py``), which imports the
app kernels, so nothing here imports an app.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, List, Sequence, Tuple

import numpy as np

from repro.memory.frames import freeze

DEFAULT_KEYS = (b"popcorn", b"kernel", b"migrate", b"infiniband")

#: most (function, spec) results kept per process, least recently used
#: dropped first: one Figure 2 sweep or DexBench workload needs <= 10
MEMO_BOUND = 16
#: generators draw and fold their randomness a block at a time, so scratch
#: is O(block) rather than a multiple of the output: a process's heap high-
#: water mark is set by its largest transient, and it keeps it for life
TEXT_BLOCK_BYTES = 64 * 1024
RMAT_BLOCK_EDGES = 32_768
_memo: "OrderedDict[tuple, Any]" = OrderedDict()


def _frozen(value: Any) -> Any:
    """*value* with every array frozen for good and every list a tuple, so
    one caller cannot change what the next one is handed, and a simulated
    memory may keep an input's pages by reference (``memory/frames.py``)."""
    if isinstance(value, np.ndarray):
        freeze(value)
    elif isinstance(value, (list, tuple)):
        return tuple(map(_frozen, value))
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            _frozen(getattr(value, f.name))
    return value


def memoised(fn: Callable) -> Callable:
    """Compute ``fn(*spec)`` once per process per spec.

    For pure functions of a hashable spec (sizes, seed, keys): workload
    inputs and the expected answers derived from them.  Results are
    shared between callers, hence frozen; a list argument is keyed as the
    tuple it spells."""
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        key = (fn, *(tuple(v) if isinstance(v, list) else v
                     for v in bound.arguments.values()))
        if key in _memo:
            _memo.move_to_end(key)
            return _memo[key]
        value = _memo[key] = _frozen(fn(*args, **kwargs))
        if len(_memo) > MEMO_BOUND:
            _memo.popitem(last=False)
        return value

    return wrapper


@memoised
def text_corpus(
    size_bytes: int,
    keys: Sequence[bytes] = DEFAULT_KEYS,
    seed: int = 7,
    plant_every: int = 8000,
) -> bytes:
    """Random lowercase text with the search keys planted roughly every
    *plant_every* bytes.

    Key occurrences are spread uniformly so every partition finds some —
    which is what makes GRP's global occurrence counter contended."""
    rng = np.random.default_rng(seed)
    text = rng.integers(ord("a"), ord("z") + 1, size=size_bytes, dtype=np.uint8)
    # sprinkle spaces for realism (Generator.random fills in order, so a
    # blocked draw is the whole draw; the uint8 integers above is not)
    for lo in range(0, size_bytes, TEXT_BLOCK_BYTES):
        block = text[lo : lo + TEXT_BLOCK_BYTES]
        block[rng.random(len(block)) < 0.15] = ord(" ")
    buffer = bytearray(text.tobytes())
    n_plants = max(size_bytes // plant_every, len(keys))
    positions = rng.integers(0, max(size_bytes - 16, 1), size=n_plants)
    for i, pos in enumerate(sorted(positions)):
        key = keys[i % len(keys)]
        # a slice assignment past the end would grow the buffer
        if pos + len(key) <= size_bytes:
            buffer[pos : pos + len(key)] = key
    return bytes(buffer)


def count_occurrences(text: bytes, keys: Sequence[bytes]) -> List[int]:
    """Reference (non-overlapping) occurrence counts."""
    return [text.count(key) for key in keys]


@memoised
def clustered_points(
    n_points: int, n_clusters: int, dim: int = 3, seed: int = 11
) -> np.ndarray:
    """Points drawn around *n_clusters* well-separated centers."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-100.0, 100.0, size=(n_clusters, dim))
    labels = rng.integers(0, n_clusters, size=n_points)
    return (centers[labels] + rng.normal(0.0, 2.0, size=(n_points, dim))).astype(
        np.float64
    )


@dataclass(frozen=True)
class OptionBatch:
    """Black–Scholes inputs: spot, strike, risk-free rate, volatility,
    time-to-maturity, and call/put flag."""

    spot: np.ndarray
    strike: np.ndarray
    rate: np.ndarray
    volatility: np.ndarray
    maturity: np.ndarray
    is_call: np.ndarray

    def __len__(self) -> int:
        return len(self.spot)


@memoised
def option_batch(n_options: int, seed: int = 13) -> OptionBatch:
    rng = np.random.default_rng(seed)
    return OptionBatch(
        spot=rng.uniform(20.0, 180.0, n_options),
        strike=rng.uniform(20.0, 180.0, n_options),
        rate=np.full(n_options, 0.02),
        volatility=rng.uniform(0.1, 0.6, n_options),
        maturity=rng.uniform(0.05, 2.0, n_options),
        is_call=rng.random(n_options) < 0.5,
    )


def black_scholes_reference(batch: OptionBatch) -> np.ndarray:
    """Closed-form prices (the reference every BLK run is checked against)."""
    from math import erf, exp, log, sqrt

    out = np.empty(len(batch))
    for i in range(len(batch)):
        s, k = batch.spot[i], batch.strike[i]
        r, v, t = batch.rate[i], batch.volatility[i], batch.maturity[i]
        d1 = (log(s / k) + (r + v * v / 2.0) * t) / (v * sqrt(t))
        d2 = d1 - v * sqrt(t)
        cnd = lambda x: 0.5 * (1.0 + erf(x / sqrt(2.0)))  # noqa: E731
        call = s * cnd(d1) - k * exp(-r * t) * cnd(d2)
        if batch.is_call[i]:
            out[i] = call
        else:
            out[i] = call - s + k * exp(-r * t)  # put-call parity
    return out


@memoised
def rmat_graph(
    n_vertices: int,
    n_edges: int,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 17,
) -> Tuple[np.ndarray, np.ndarray]:
    """An R-MAT graph in CSR form ``(indptr, indices)``.

    Recursive quadrant descent with the Graph500 parameters the paper used
    (α=0.57, β=0.19; the remaining mass splits between c and d).  Self
    loops are kept (as Graph500 does); duplicate edges are removed.
    """
    if min(a, b, c) < 0.0:
        raise ValueError(f"quadrant probabilities must be >= 0, got {(a, b, c)}")
    if n_vertices & (n_vertices - 1):
        # round up to a power of two for clean quadrant descent
        n_vertices = 1 << (n_vertices - 1).bit_length()
    levels = n_vertices.bit_length() - 1
    rng = np.random.default_rng(seed)
    # b and d set the level's dst bit, c and d its src bit; an edge is the
    # one key src << levels | dst, so a quadrant contributes
    # (src_bit << levels | dst_bit) * level_weight and the key is one dot
    bits = np.array([0, 1, 1 << levels, 1 << levels | 1], dtype=np.int64)
    weights = 1 << np.arange(levels - 1, -1, -1, dtype=np.int64)
    edge = np.empty(n_edges, dtype=np.int64)
    for lo in range(0, n_edges, RMAT_BLOCK_EDGES):
        # one quadrant decision per (edge, level): the number of thresholds
        # a draw clears is its quadrant, 0..3 = a, b, c, d (row blocks of
        # Generator.random are the rows of the whole draw)
        probs = rng.random((min(RMAT_BLOCK_EDGES, n_edges - lo), levels))
        quadrant = ((probs >= a).view(np.uint8) + (probs >= a + b)
                    + (probs >= a + b + c))
        edge[lo : lo + len(probs)] = bits[quadrant] @ weights
    # symmetrize (Polymer's inputs are undirected), sort by (src, dst), dedupe
    low = (1 << levels) - 1
    keys = np.concatenate([edge, (edge & low) << levels | edge >> levels])
    keys.sort()
    keep = np.ones(len(keys), dtype=bool)
    keep[1:] = keys[1:] != keys[:-1]
    keys = keys[keep]
    indptr = np.zeros(n_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys >> levels, minlength=n_vertices),
              out=indptr[1:])
    return indptr, keys & low


def bfs_reference(indptr: np.ndarray, indices: np.ndarray, source: int) -> np.ndarray:
    """Single-threaded BFS distances (-1 = unreachable)."""
    n = len(indptr) - 1
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = [source]
    level = 0
    while frontier:
        nxt = []
        for u in frontier:
            for v in indices[indptr[u] : indptr[u + 1]]:
                if dist[v] < 0:
                    dist[v] = level + 1
                    nxt.append(int(v))
        frontier = nxt
        level += 1
    return dist
