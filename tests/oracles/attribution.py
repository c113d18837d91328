"""The two reference attribution sweeps: the per-thread priority sweep
``repro.obs.export.attribution`` ran and the deepest-span sweep DexLens
ran per completed tree, each over its own span-name table.  Production
now runs both as rankings of the one ``export.sweep`` over the one
``SPAN_PHASES`` table; ``tests/test_attribution_oracle.py`` requires
identical (``==``) results.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from repro.obs.export import PHASE_NAMES, PathPhase

# span-name prefix -> (phase, priority); higher priority wins on overlap
_PHASES: Tuple[Tuple[str, str, int], ...] = (
    ("chaos.", "chaos", 6),
    ("futex.", "futex", 5),
    ("fault", "fault_wait", 4),
    ("migration.", "migration", 3),
    ("delegation.", "delegation", 2),
    ("compute", "compute", 1),
)

#: span-name prefix -> PathPhase, longest prefix first (first match wins)
_PATH_PHASES: Tuple[Tuple[str, PathPhase], ...] = (
    ("net.wire", PathPhase.WIRE),
    ("net.", PathPhase.QUEUE),
    ("rx.", PathPhase.HANDLER),
    ("protocol.revoke", PathPhase.BLOCKED),
    ("protocol.invalidate", PathPhase.BLOCKED),
    ("protocol.await_forward", PathPhase.BLOCKED),
    ("fault.follow", PathPhase.BLOCKED),
    ("futex.", PathPhase.BLOCKED),
    ("fault.acquire", PathPhase.QUEUE),
    ("fault", PathPhase.QUEUE),
    ("compute", PathPhase.COMPUTE),
)


def path_phase_of(name: str) -> PathPhase:
    for prefix, phase in _PATH_PHASES:
        if name.startswith(prefix):
            return phase
    return PathPhase.HANDLER


def phase_of(name: str) -> Optional[Tuple[str, int]]:
    for prefix, phase, prio in _PHASES:
        if name.startswith(prefix):
            return phase, prio
    return None


def attribution(spans) -> Dict[int, Dict[str, float]]:
    """``{tid: {phase: us}}`` by a priority sweep per thread."""
    by_tid: Dict[int, List[Tuple[float, int, int]]] = defaultdict(list)
    for s in spans:
        if s.tid < 0 or s.end_us is None:
            continue
        cat = phase_of(s.name)
        if cat is None:
            continue
        _, prio = cat
        by_tid[s.tid].append((s.start_us, +1, prio))
        by_tid[s.tid].append((s.end_us, -1, prio))

    prio_to_phase = {prio: phase for _, phase, prio in _PHASES}
    out: Dict[int, Dict[str, float]] = {}
    for tid, events in by_tid.items():
        events.sort(key=lambda e: (e[0], e[1]))  # ends before starts at ties
        active = [0] * 8  # open-span count per priority level
        top = 0  # highest priority with active[p] > 0
        last_t = None
        totals: Dict[str, float] = {p: 0.0 for p in PHASE_NAMES}
        for t, delta, prio in events:
            if last_t is not None and top > 0 and t > last_t:
                totals[prio_to_phase[top]] += t - last_t
            active[prio] += delta
            top = max((p for p in range(1, 8) if active[p] > 0), default=0)
            last_t = t
        out[tid] = totals
    return out


def tree_phases(root, members) -> Dict[PathPhase, float]:
    """*root*'s latency by PathPhase: the deepest open span owns each
    instant; the root's residual in a multi-span tree is queueing."""
    multi = len(members) > 1
    depth: Dict[int, int] = {root.span_id: 0}
    index = {span.span_id: span for span in members}

    def depth_of(span) -> int:
        d = depth.get(span.span_id)
        if d is None:
            parent = index.get(span.parent_id)
            d = 1 if parent is None else depth_of(parent) + 1
            depth[span.span_id] = d
        return d

    events = []
    for span in members:
        if span.end_us is None or span.end_us <= span.start_us:
            continue
        d = depth_of(span)
        events.append((span.start_us, 1, d, span))
        events.append((span.end_us, 0, d, span))
    events.sort(key=lambda e: (e[0], e[1]))
    active: Dict[int, Tuple[int, object]] = {}
    phases: Dict[PathPhase, float] = {}
    last_t: Optional[float] = None
    for t, is_start, d, span in events:
        if active and last_t is not None and t > last_t:
            _, owner = max(
                active.values(), key=lambda ds: (ds[0], ds[1].span_id)
            )
            if owner is root and multi:
                phase = PathPhase.QUEUE
            else:
                phase = path_phase_of(owner.name)
            phases[phase] = phases.get(phase, 0.0) + (t - last_t)
        if is_start:
            active[span.span_id] = (d, span)
        else:
            active.pop(span.span_id, None)
        last_t = t
    return phases
