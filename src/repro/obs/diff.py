"""Cross-run differential attribution: compare two run manifests.

``python -m repro.obs diff A.json B.json`` answers the question a
regression report has to answer to be actionable: not just *what* got
slower, but *where the time went*.  The comparison has three layers:

* **ranked metric deltas** — every shared counter, latency quantile, and
  headline result metric, ordered by relative change;
* **phase attribution** — the DexLens critical-path histograms
  (queue/wire/handler/blocked/compute) are compared as totals, and the
  phase with the largest absolute growth is named the *dominant* phase
  of the regression;
* **shard attribution** — per-home directory request deltas name the
  shard whose load moved.

A thresholded verdict (``--check``) turns the diff into a CI trend
guard: the exit status is nonzero when a headline metric (end-to-end
sim time, fault p99) regressed by more than ``--threshold`` (default
10%), with a one-line attribution like ``p99 fault latency +12%,
dominated by wire (+9.1 ms, 61% of growth), hottest shard 3`` — and when
a headline metric is absent from either side or the candidate's result is
not ``correct``: a guard that compares only what both have passes vacuously.

Pure manifest arithmetic — no simulation imports, no wall clocks.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "DiffReport",
    "MetricDelta",
    "diff_manifests",
    "format_report",
]

#: metrics whose regression flips the verdict (name, manifest path)
HEADLINE_METRICS = (
    ("sim_time_us", ("result", "sim_time_us")),
    ("fault_p99_us", ("quantiles", "fault_latency_us", "overall", "p99")),
)

#: ignore relative changes on values this small (counter noise floor)
_ABS_FLOOR = 1e-9


class MetricDelta:
    """One compared metric: ``a`` (baseline) vs ``b`` (candidate)."""

    __slots__ = ("name", "a", "b", "delta", "rel", "kind")

    def __init__(self, name: str, a: float, b: float, kind: str):
        self.name = name
        self.a = a
        self.b = b
        self.delta = b - a
        base = abs(a)
        self.rel = (self.delta / base) if base > _ABS_FLOOR else (
            0.0 if abs(self.delta) <= _ABS_FLOOR else float("inf")
        )
        self.kind = kind  # "result" | "counter" | "quantile" | "phase"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name, "kind": self.kind,
            "a": self.a, "b": self.b,
            "delta": self.delta, "rel": self.rel,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MetricDelta {self.name} {self.rel:+.1%}>"


class DiffReport:
    """The full comparison: ranked deltas plus verdict and attribution."""

    def __init__(
        self,
        label_a: str,
        label_b: str,
        deltas: List[MetricDelta],
        *,
        threshold: float,
        regressions: List[MetricDelta],
        unchecked: List[str],
        dominant_phase: Optional[str],
        dominant_share: float,
        dominant_delta_us: float,
        hottest_shard: Optional[str],
        shard_delta: float,
    ):
        self.label_a = label_a
        self.label_b = label_b
        self.deltas = deltas
        self.threshold = threshold
        self.regressions = regressions
        #: why no verdict can vouch for the candidate, regressed or not
        self.unchecked = unchecked
        self.dominant_phase = dominant_phase
        self.dominant_share = dominant_share
        self.dominant_delta_us = dominant_delta_us
        self.hottest_shard = hottest_shard
        self.shard_delta = shard_delta

    @property
    def regressed(self) -> bool:
        return bool(self.regressions)

    def attribution(self) -> str:
        """The one-line verdict a CI log (or a human) reads first."""
        if not self.regressions:
            if self.unchecked:
                return "unchecked: " + "; ".join(self.unchecked)
            return (
                f"ok: no headline metric regressed more than "
                f"{self.threshold:.0%} ({self.label_b} vs {self.label_a})"
            )
        worst = self.regressions[0]
        parts = [f"{worst.name} {worst.rel:+.1%}"]
        if self.dominant_phase is not None:
            parts.append(
                f"dominated by {self.dominant_phase} "
                f"({self.dominant_delta_us:+,.0f} us, "
                f"{self.dominant_share:.0%} of growth)"
            )
        if self.hottest_shard is not None:
            parts.append(
                f"hottest shard {self.hottest_shard} "
                f"({self.shard_delta:+,.0f} requests)"
            )
        return "regression: " + ", ".join(parts)


def _get_path(doc: Dict[str, Any], path: Tuple[str, ...]) -> Optional[float]:
    node: Any = doc
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return float(node) if isinstance(node, (int, float)) else None


def _shared_numbers(
    a: Dict[str, Any], b: Dict[str, Any]
) -> List[Tuple[str, float, float]]:
    out = []
    for key in sorted(set(a) & set(b)):
        va, vb = a[key], b[key]
        if isinstance(va, (int, float)) and isinstance(vb, (int, float)):
            out.append((key, float(va), float(vb)))
    return out


def diff_manifests(
    a: Dict[str, Any],
    b: Dict[str, Any],
    *,
    threshold: float = 0.10,
) -> DiffReport:
    """Compare candidate *b* against baseline *a* (both manifest docs)."""
    deltas: List[MetricDelta] = []
    unchecked: List[str] = []

    for name, path in HEADLINE_METRICS:
        va, vb = _get_path(a, path), _get_path(b, path)
        if va is not None and vb is not None:
            deltas.append(MetricDelta(name, va, vb, "result"))
        else:
            absent = " and ".join(
                side for side, v in (("baseline", va), ("candidate", vb))
                if v is None)
            unchecked.append(f"{name} missing from {absent}")
    result_b = b.get("result")
    if not (isinstance(result_b, dict) and result_b.get("correct") is True):
        unchecked.append("candidate result.correct is not true")

    for key, va, vb in _shared_numbers(
        a.get("counters", {}), b.get("counters", {})
    ):
        if va or vb:
            deltas.append(MetricDelta(key, va, vb, "counter"))

    qa = a.get("quantiles", {}).get("fault_latency_us", {})
    qb = b.get("quantiles", {}).get("fault_latency_us", {})
    for mode in sorted(set(qa.get("by_mode", {})) & set(qb.get("by_mode", {}))):
        for q in ("p50", "p99"):
            va = qa["by_mode"][mode].get(q)
            vb = qb["by_mode"][mode].get(q)
            if va is not None and vb is not None:
                deltas.append(
                    MetricDelta(f"fault_{mode}_{q}_us", va, vb, "quantile")
                )

    # phase totals: where the critical-path microseconds moved
    phases_a = a.get("phases", {})
    phases_b = b.get("phases", {})
    phase_growth: List[Tuple[str, float]] = []
    for phase in sorted(set(phases_a) & set(phases_b)):
        sum_a = float(phases_a[phase].get("sum", 0.0))
        sum_b = float(phases_b[phase].get("sum", 0.0))
        deltas.append(MetricDelta(f"phase_{phase}_us", sum_a, sum_b, "phase"))
        phase_growth.append((phase, sum_b - sum_a))

    dominant_phase: Optional[str] = None
    dominant_share = 0.0
    dominant_delta_us = 0.0
    grew = [(p, d) for p, d in phase_growth if d > 0.0]
    if grew:
        total_growth = sum(d for _, d in grew)
        dominant_phase, dominant_delta_us = max(grew, key=lambda pd: pd[1])
        dominant_share = (
            dominant_delta_us / total_growth if total_growth > 0 else 0.0
        )

    # shard attribution: whose directory load moved the most
    hottest_shard: Optional[str] = None
    shard_delta = 0.0
    dir_a = a.get("directory_requests", {})
    dir_b = b.get("directory_requests", {})
    for home in set(dir_a) | set(dir_b):
        d = float(dir_b.get(home, 0)) - float(dir_a.get(home, 0))
        if abs(d) > abs(shard_delta):
            hottest_shard, shard_delta = home, d

    deltas.sort(key=lambda m: (-abs(m.rel), -abs(m.delta), m.name))
    regressions = [
        m for m in deltas
        if m.kind == "result" and m.rel > threshold
    ]
    regressions.sort(key=lambda m: -m.rel)

    return DiffReport(
        a.get("label", "A"),
        b.get("label", "B"),
        deltas,
        threshold=threshold,
        regressions=regressions,
        unchecked=unchecked,
        dominant_phase=dominant_phase,
        dominant_share=dominant_share,
        dominant_delta_us=dominant_delta_us,
        hottest_shard=hottest_shard,
        shard_delta=shard_delta,
    )


def format_report(report: DiffReport, *, limit: int = 20) -> str:
    """Render the ranked table plus the verdict line."""
    lines = [
        f"diff: {report.label_b} vs baseline {report.label_a}",
        f"  {'metric':<28}{'baseline':>14}{'candidate':>14}{'change':>10}",
    ]
    shown = 0
    for m in report.deltas:
        if shown >= limit:
            lines.append(f"  ... {len(report.deltas) - shown} more metrics")
            break
        if m.delta == 0.0:
            continue
        rel = f"{m.rel:+.1%}" if m.rel != float("inf") else "new"
        lines.append(
            f"  {m.name:<28}{m.a:>14,.1f}{m.b:>14,.1f}{rel:>10}"
        )
        shown += 1
    if shown == 0:
        lines.append("  (no metric changed)")
    lines.append(report.attribution())
    return "\n".join(lines)
