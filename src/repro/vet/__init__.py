"""DexVet: whole-program static analysis for the coherence protocol.

One parse of the package feeds four cooperating passes:

1. **loader** — AST per module, parse failures as violations;
2. **call graph** — name-based over-approximation of who calls whom;
3. **effect inference** — blocking (generator) vs pure, propagated to a
   fixed point through ``return f(...)`` wrappers;
4. **message graph** — per ``MsgType`` member: send sites, registered
   handlers, and request↔reply pairing via reachability.

Rules (six ported per-file lint rules, six whole-program protocol rules
and four per-file discipline rules) run off the shared
:class:`~repro.vet.rules.VetContext`.
Entry point: ``python -m repro.vet`` — see :mod:`repro.vet.cli`.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.vet.callgraph import CallGraph
from repro.vet.effects import infer_effects
from repro.vet.loader import iter_python_files, load_paths, package_root, repo_root
from repro.vet.msggraph import MessageGraph, ModuleScan
from repro.vet.rules import REGISTRY, VetContext, Violation, run_rules
from repro.vet import legacy as _legacy  # registers the six ported rules
from repro.vet.legacy import LEGACY_RULES

#: the rules of :mod:`repro.vet.rules`: the whole-program ones that need
#: the shared graph/effect passes, then its per-file disciplines
GRAPH_RULES = tuple(name for name in REGISTRY if name not in LEGACY_RULES)

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
    scans = [ModuleScan(m) for m in modules]
    callgraph = CallGraph(modules)
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


def vet_paths(
    paths: Sequence[Path],
    rules: Optional[Sequence[str]] = None,
    repo_mode: bool = False,
) -> List[Violation]:
    """One-call convenience: build the context and run *rules* over it."""
    return run_rules(build_context(paths, repo_mode=repo_mode), rules)


def vet_repo(
    root: Optional[Path] = None, rules: Optional[Sequence[str]] = None
) -> List[Violation]:
    """Vet the installed ``repro`` package sources with repo exemptions."""
    if root is None:
        root = package_root()
    return vet_paths([root], rules=rules, repo_mode=True)
