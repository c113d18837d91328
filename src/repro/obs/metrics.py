"""Typed metrics: counters and log-bucketed histograms.

``DexStats`` (``repro.core.stats``) is a facade over a
:class:`MetricsRegistry`; subsystems can also register their own metrics
(e.g. the fabric's per-message-type counters).  Everything here is plain
arithmetic on Python ints/floats — no wall clocks, no I/O — so it is safe
to use from simulation code.

Design notes
------------
* A metric with ``labelnames`` acts as a *family*: ``labels(node=3)``
  returns (creating on first use) the child metric for that label value.
  Children are ordinary metrics; families aggregate over them on demand.
* :class:`Histogram` uses geometric (log-scale) buckets so a fixed, small
  amount of state covers the full dynamic range of fault latencies (sub-µs
  RDMA legs up to multi-ms contended faults).  ``sum``/``count``/``min``/
  ``max`` are exact; percentiles are approximate (bucket-resolution).
"""

from __future__ import annotations

import bisect
import math
from typing import Any, Dict, List, Optional, Sequence, Tuple


class _LabeledMixin:
    """Shared family/child machinery for all metric kinds."""

    name: str
    help: str
    labelnames: Tuple[str, ...]

    def _init_labels(self, labelnames: Sequence[str]) -> None:
        self.labelnames = tuple(labelnames)
        self._children: Dict[Tuple[Any, ...], Any] = {}

    def labels(self, **labelvalues: Any):
        """Child metric for the given label values (created on first use)."""
        if not self.labelnames:
            raise ValueError(f"metric {self.name!r} has no labels")
        try:
            key = tuple(labelvalues[n] for n in self.labelnames)
        except KeyError as missing:
            raise ValueError(
                f"metric {self.name!r} expects labels {self.labelnames}"
            ) from missing
        child = self._children.get(key)
        if child is None:
            child = self._make_child()
            self._children[key] = child
        return child

    def per_label(self) -> Dict[Any, Any]:
        """``{label value(s): child}`` — single-label families key by the
        bare value, multi-label families by the value tuple."""
        if len(self.labelnames) == 1:
            return {key[0]: child for key, child in self._children.items()}
        return dict(self._children)

    def _make_child(self):  # pragma: no cover - overridden
        raise NotImplementedError


class Counter(_LabeledMixin):
    """A monotonically-increasing count (resettable for facade use)."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()):
        self.name = name
        self.help = help
        self.value = 0
        self._init_labels(labelnames)

    def _make_child(self) -> "Counter":
        return Counter(self.name, self.help)

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def total(self):
        """Own value plus all children (families count through labels)."""
        return self.value + sum(c.value for c in self._children.values())

    def value_by_label(self) -> Dict[Any, Any]:
        return {key: child.value for key, child in self.per_label().items()}

    def snapshot(self) -> Any:
        if self._children:
            return {"total": self.total(), "by_label": self.value_by_label()}
        return self.value


class Histogram(_LabeledMixin):
    """Geometric-bucket histogram.

    Bucket ``i`` (0-based) holds observations ``v`` with
    ``bounds[i-1] < v <= bounds[i]`` where ``bounds[i] = start * factor**i``;
    one extra overflow bucket catches everything above the last bound.
    Non-positive observations land in bucket 0.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        *,
        start: float = 0.25,
        factor: float = 2.0 ** 0.5,
        nbuckets: int = 64,
        labelnames: Sequence[str] = (),
    ):
        if start <= 0 or factor <= 1 or nbuckets < 1:
            raise ValueError("histogram needs start > 0, factor > 1, nbuckets >= 1")
        self.name = name
        self.help = help
        self.start = start
        self.factor = factor
        self.bounds: List[float] = [start * factor ** i for i in range(nbuckets)]
        self.counts: List[int] = [0] * (nbuckets + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._init_labels(labelnames)

    def _make_child(self) -> "Histogram":
        return Histogram(
            self.name,
            self.help,
            start=self.start,
            factor=self.factor,
            nbuckets=len(self.bounds),
        )

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def _merged(self) -> "Histogram":
        """Aggregate of self plus all labeled children."""
        if not self._children:
            return self
        merged = self._make_child()
        for hist in (self, *self._children.values()):
            merged._fold(hist)
        return merged

    def percentile(self, p: float) -> float:
        """Approximate p-th percentile (0 <= p <= 100) from the buckets,
        linearly interpolated inside the covering bucket and clamped to the
        exact observed ``[min, max]``."""
        hist = self._merged()
        if hist.count == 0:
            return 0.0
        rank = max(1.0, math.ceil(p / 100.0 * hist.count))
        seen = 0
        for i, n in enumerate(hist.counts):
            if n == 0:
                continue
            if seen + n >= rank:
                lo = 0.0 if i == 0 else hist.bounds[i - 1]
                hi = hist.bounds[i] if i < len(hist.bounds) else hist.max
                frac = (rank - seen) / n
                est = lo + (hi - lo) * frac
                return min(max(est, hist.min), hist.max)
            seen += n
        return hist.max

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold *other*'s samples into this histogram, in place.

        Requires identical bucket geometry (start/factor/bucket count).
        Merging an empty operand is a no-op either way round: the empty
        side's ``min=+inf`` / ``max=-inf`` sentinels lose every min/max
        comparison, so they never leak into the merged extrema."""
        if (
            other.start != self.start
            or other.factor != self.factor
            or len(other.bounds) != len(self.bounds)
        ):
            raise ValueError(
                f"cannot merge histogram {other.name!r} "
                f"(start={other.start}, factor={other.factor}, "
                f"nbuckets={len(other.bounds)}) into {self.name!r} "
                f"(start={self.start}, factor={self.factor}, "
                f"nbuckets={len(self.bounds)})"
            )
        return self._fold(other._merged())

    def merge_into(self, target: Optional["Histogram"]) -> "Histogram":
        """*target* with this folded in — a fresh histogram of this one's
        geometry when there is no *target* yet."""
        return (self._make_child() if target is None else target).merge(self)

    def _fold(self, src: "Histogram") -> "Histogram":
        """:meth:`merge` proper: add *src*'s own buckets (same geometry,
        children not looked at) to this histogram's."""
        for i, n in enumerate(src.counts):
            self.counts[i] += n
        self.count += src.count
        self.sum += src.sum
        if src.min < self.min:
            self.min = src.min
        if src.max > self.max:
            self.max = src.max
        return self

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable state (labeled children folded in).

        The empty histogram's ``min=+inf`` / ``max=-inf`` sentinels are
        not JSON-representable; they serialize as ``None`` and
        :meth:`from_dict` restores the sentinels, so an empty histogram
        round-trips to one that still merges and ranks correctly."""
        hist = self._merged()
        return {
            "name": self.name,
            "start": self.start,
            "factor": self.factor,
            "nbuckets": len(self.bounds),
            "counts": list(hist.counts),
            "count": hist.count,
            "sum": hist.sum,
            "min": hist.min if hist.count else None,
            "max": hist.max if hist.count else None,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Histogram":
        """Inverse of :meth:`to_dict`; validates bucket geometry."""
        nbuckets = int(data["nbuckets"])
        hist = cls(
            data.get("name", "histogram"),
            start=data["start"],
            factor=data["factor"],
            nbuckets=nbuckets,
        )
        counts = list(data["counts"])
        if len(counts) != nbuckets + 1:
            raise ValueError(
                f"histogram {hist.name!r}: expected {nbuckets + 1} bucket "
                f"counts (nbuckets + overflow), got {len(counts)}"
            )
        hist.counts = [int(n) for n in counts]
        hist.count = int(data["count"])
        hist.sum = float(data["sum"])
        hist.min = math.inf if data["min"] is None else float(data["min"])
        hist.max = -math.inf if data["max"] is None else float(data["max"])
        return hist

    def quantiles(self, *ps: float) -> Dict[str, float]:
        """Bucket-resolution quantile estimates for several points in one
        call (one merge), keyed ``"p50"``/``"p99"``/``"p999"``-style: the
        label is ``p`` followed by the percentile with any fraction's
        digits appended (99.9 -> ``p999``)."""
        hist = self._merged()
        out: Dict[str, float] = {}
        for p in ps:
            label = f"p{p:g}".replace(".", "")
            out[label] = hist.percentile(p)
        return out

    def snapshot(self) -> Dict[str, Any]:
        hist = self._merged()
        return {
            "count": hist.count,
            "sum": hist.sum,
            "mean": hist.mean,
            "min": hist.min if hist.count else None,
            "max": hist.max if hist.count else None,
            **hist.quantiles(50, 90, 99, 99.9),
        }


class MetricsRegistry:
    """A named collection of metrics with a single snapshot/report path.

    Registration is idempotent: asking for an existing name returns the
    existing metric (so library code can self-register without coordination),
    but re-registering under a different kind is an error.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}

    def _register(self, cls, name: str, help: str, **kwargs):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            return existing
        metric = cls(name, help, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Counter:
        return self._register(Counter, name, help, labelnames=labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        *,
        start: float = 0.25,
        factor: float = 2.0 ** 0.5,
        nbuckets: int = 64,
        labelnames: Sequence[str] = (),
    ) -> Histogram:
        return self._register(
            Histogram, name, help,
            start=start, factor=factor, nbuckets=nbuckets, labelnames=labelnames,
        )

    def get(self, name: str):
        return self._metrics[name]

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def counter_totals(self, into: Dict[str, Any]) -> Dict[str, Any]:
        """Add each counter's total (labels summed) to ``into[name]``, so
        several registries fold into one dict; returns *into*."""
        for name, metric in self._metrics.items():
            if isinstance(metric, Counter):
                into[name] = into.get(name, 0) + metric.total()
        return into

    def snapshot(self) -> Dict[str, Any]:
        return {name: metric.snapshot() for name, metric in self._metrics.items()}

    def report(self, *, skip_zero: bool = True) -> str:
        """Human-readable text dump, one metric per line (histograms get a
        count/mean/percentile summary line)."""
        lines = []
        for name, metric in self._metrics.items():
            if isinstance(metric, Histogram):
                snap = metric.snapshot()
                if skip_zero and snap["count"] == 0:
                    continue
                lines.append(
                    f"{name:<34} count={snap['count']:<9} mean={snap['mean']:.2f}"
                    f" p50={snap['p50']:.2f} p99={snap['p99']:.2f}"
                    f" p999={snap['p999']:.2f} max={snap['max']:.2f}"
                )
            elif isinstance(metric, Counter) and metric._children:
                total = metric.total()
                if skip_zero and total == 0:
                    continue
                parts = " ".join(
                    f"{key}={val}" for key, val in sorted(
                        metric.value_by_label().items(), key=lambda kv: str(kv[0])
                    )
                )
                lines.append(f"{name:<34} {total} ({parts})")
            else:
                if skip_zero and not metric.value:
                    continue
                lines.append(f"{name:<34} {metric.value}")
        return "\n".join(lines)
