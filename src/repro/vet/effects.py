"""Effect inference: which functions *block* (suspend in simulated time)?

The simulator is generator-based: a blocking operation is a generator
function whose yields hand waitables to the engine.  Calling one does
nothing by itself — it builds a generator object; the wait only happens
when that object is driven (``yield from`` it, or spawn it as a process).
The classic silently-dropped-wait bug is calling a blocking function as
a statement: the generator is created, never iterated, and the simulated
work it models simply does not happen.  No test fails loudly — time is
just wrong.

The lattice has two points per function:

* ``BLOCKING`` — the function is a generator (lexically yields), or
  every return path hands back a call to a blocking function
  (``def fwd(m): return self._send(m)`` is as blocking as ``_send``).
  The caller must consume the result through the engine.
* ``PURE`` — anything else: ordinary code, or engine plumbing that
  returns :class:`~repro.sim.engine.Event` objects for a plain ``yield``.

Propagation runs to a fixed point over the name-based call graph.  To
keep the downstream rule free of false positives, a *call site* is only
considered blocking when **every** scanned definition its name can
resolve to is blocking — mixed name collisions (e.g. ``acquire`` naming
both a generator pool method and an event-returning resource method)
are skipped rather than guessed at.
"""

from __future__ import annotations

import ast
from typing import Dict, Optional

from repro.vet.callgraph import (
    UBIQUITOUS_METHODS, CallGraph, FunctionInfo, call_name,
)

PURE = "pure"
BLOCKING = "blocking"


def infer_effects(graph: CallGraph) -> Dict[FunctionInfo, str]:
    """Classify every scanned function as ``BLOCKING`` or ``PURE``."""
    effects: Dict[FunctionInfo, str] = {
        fn: BLOCKING if fn.is_generator else PURE for fn in graph.functions
    }
    # fixed point: effect flows through `return f(...)` wrappers
    changed = True
    while changed:
        changed = False
        for fn in graph.functions:
            if effects[fn] is BLOCKING:
                continue
            for name in fn.return_call_names:
                candidates = graph.resolve(name)
                if candidates and all(
                    effects[c] is BLOCKING for c in candidates
                ):
                    effects[fn] = BLOCKING
                    changed = True
                    break
    return effects


def call_effect(
    graph: CallGraph, effects: Dict[FunctionInfo, str], call: ast.Call
) -> Optional[str]:
    """The effect of *call*, or None when unresolvable/ambiguous.

    Returns ``BLOCKING`` only when every candidate definition is
    blocking; returns ``PURE`` when every candidate is pure; returns
    None for unknown names and mixed candidate sets."""
    name = call_name(call)
    if name is None:
        return None
    if isinstance(call.func, ast.Attribute) and name in UBIQUITOUS_METHODS:
        return None
    candidates = graph.resolve(name)
    if not candidates:
        return None
    kinds = {effects[c] for c in candidates}
    if len(kinds) == 1:
        return kinds.pop()
    return None
