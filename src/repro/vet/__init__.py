"""DexVet: whole-program static analysis for the coherence protocol.

One parse of the package feeds four cooperating passes:

1. **loader** — AST per module, parse failures as violations;
2. **call graph** — name-based over-approximation of who calls whom;
3. **effect inference** — blocking (generator) vs pure, propagated to a
   fixed point through ``return f(...)`` wrappers;
4. **message graph** — per ``MsgType`` member: send sites, registered
   handlers, and request↔reply pairing via reachability.

Every rule lives in the one registry of :mod:`repro.vet.rules` and reads
the shared :class:`~repro.vet.rules.VetContext`; a finding is fixed, never
suppressed.
Entry point: ``python -m repro.vet`` — see :mod:`repro.vet.cli`.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path
from typing import Sequence, Tuple

from repro.vet.callgraph import CallGraph
from repro.vet.effects import infer_effects
from repro.vet.loader import iter_python_files, load_paths
from repro.vet.msggraph import MessageGraph, ModuleScan
from repro.vet.rules import REGISTRY, VetContext, run_rules

#: every selectable rule, in report order
ALL_RULES = tuple(REGISTRY)


def build_context(
    paths: Sequence[Path], repo_mode: bool = False
) -> VetContext:
    """Parse *paths* once and run every shared analysis pass.  Rules only
    read the context, so one is shared by every caller in the process
    that scans the same files in the same state (path, mtime, size)."""
    paths = tuple(Path(p) for p in paths)
    stats = [(path, path.stat()) for path in iter_python_files(paths)]
    stamp = tuple((str(p), st.st_mtime_ns, st.st_size) for p, st in stats)
    return _build_context(paths, stamp, repo_mode)


@lru_cache(maxsize=32)
def _build_context(
    paths: Tuple[Path, ...], stamp: Tuple[tuple, ...], repo_mode: bool
) -> VetContext:
    modules, failures = load_paths(paths)
    callgraph = CallGraph(modules)
    scans = [ModuleScan(m, callgraph) for m in modules]
    effects = infer_effects(callgraph)
    graph = MessageGraph(scans, callgraph)
    return VetContext(
        modules=modules,
        failures=failures,
        scans=scans,
        callgraph=callgraph,
        effects=effects,
        graph=graph,
        repo_mode=repo_mode,
    )
