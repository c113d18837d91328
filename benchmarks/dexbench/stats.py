"""Small statistics helpers shared by the harness, compare.py and the tests.

Nothing here imports the program under test.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import statistics
from typing import Any, List, Sequence, Tuple

import numpy as np


def tail_percentile(
    values: Sequence[float], target: float = 99.0, beyond: int = 10
) -> Tuple[float, float, int]:
    """The highest percentile, at most *target*, that still has at least
    *beyond* samples above it (nearest rank).

    Returns ``(value, percentile_used, sample_count)`` so every caller can
    print the count and the percentile it really got next to the number.
    With too few samples for any tail (``n < 2 * beyond``) the median is
    returned: a "p99" of 30 samples would be one outlier's latency."""
    n = len(values)
    if n == 0:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = min(math.ceil(target / 100.0 * n), n - beyond)
    rank = max(rank, math.ceil(n / 2), 1)
    return ordered[rank - 1], 100.0 * rank / n, n


def iqr_share(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median — the spread the benchmark contract is judged by."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _canonical(obj: Any, out: List[bytes]) -> None:
    """Append a type-tagged, order-stable byte rendering of *obj*."""
    if isinstance(obj, np.ndarray):
        out.append(b"A" + str(obj.dtype).encode() + repr(obj.shape).encode())
        out.append(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (bytes, bytearray)):
        out.append(b"B" + bytes(obj))
    elif isinstance(obj, (bool, int, str, type(None))):
        out.append(b"S" + repr(obj).encode())
    elif isinstance(obj, (float, np.floating)):
        # repr round-trips a double exactly, so equal digests mean equal bits
        out.append(b"F" + repr(float(obj)).encode())
    elif isinstance(obj, np.integer):
        out.append(b"S" + repr(int(obj)).encode())
    elif isinstance(obj, dict):
        out.append(b"D%d" % len(obj))
        for key in sorted(obj, key=repr):
            _canonical(key, out)
            _canonical(obj[key], out)
    elif isinstance(obj, (list, tuple)):
        out.append(b"L%d" % len(obj))
        for item in obj:
            _canonical(item, out)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        _canonical(dataclasses.asdict(obj), out)
    else:
        raise TypeError(f"cannot digest a {type(obj).__name__}")


def digest(obj: Any) -> str:
    """Hex SHA-256 of a nested structure of numbers, strings, bytes,
    numpy arrays, lists, dicts and dataclasses.  Floats hash by their
    exact value: two runs share a digest only if they agree bit for bit."""
    parts: List[bytes] = []
    _canonical(obj, parts)
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()

