"""Whole-program call graph over the scanned modules.

Python's dynamism means a sound points-to analysis is out of reach for a
linter; DexVet uses the classic *name-based* approximation (class
hierarchy analysis without the hierarchy): a call ``x.f(...)`` may reach
any function or method named ``f`` in the scanned code.  That is
imprecise but safely over-approximates reachability — good enough for
reply-pairing closure — and the effect rules sharpen it by only firing
when *every* candidate agrees (see :mod:`repro.vet.effects`).
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.vet.loader import ModuleInfo

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)

#: method names shared with builtin containers/files (``set.add``,
#: ``list.append``, ``dict.get``, ...).  The name-based call graph
#: cannot see builtin types, so an attribute call to one of these names
#: almost always targets a builtin object, not a same-named scanned def
#: (e.g. ``DexArray.add``).  Such calls contribute no call-graph edges
#: and have unknown effect — the cost is missing analysis through such a
#: method, the benefit is zero false edges from idiomatic container code.
UBIQUITOUS_METHODS = frozenset({
    "add", "append", "appendleft", "extend", "insert", "remove",
    "discard", "pop", "popleft", "popitem", "clear", "update", "sort",
    "reverse", "setdefault", "get", "write", "read", "close", "flush",
    "join", "split", "strip", "format", "items", "keys", "values",
    "copy",
})


def dotted_name(node: ast.AST) -> Tuple[str, ...]:
    """The attribute chain of *node* as a name tuple, e.g.
    ``np.random.default_rng`` -> ``("np", "random", "default_rng")``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return ()


def call_name(call: ast.Call) -> Optional[str]:
    """The bare callee name of *call* (attribute tail or plain name)."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def iter_own_nodes(fn: ast.AST) -> Iterable[ast.AST]:
    """Walk *fn*'s body without descending into nested function/class
    definitions (their yields and calls belong to the inner scope)."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, _FUNC_NODES + (ast.ClassDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


class FunctionInfo:
    """One function or method definition."""

    __slots__ = (
        "name", "qualname", "module", "node", "lineno", "own",
        "is_generator", "called_names", "return_call_names",
    )

    def __init__(self, module: ModuleInfo, node: ast.AST, owner: str):
        self.module = module
        self.node = node
        self.name = node.name
        self.qualname = (
            f"{module.rel}::{owner}.{node.name}" if owner
            else f"{module.rel}::{node.name}"
        )
        self.lineno = node.lineno
        #: the body's nodes, nested definitions excluded: walked once
        self.own: List[ast.AST] = list(iter_own_nodes(node))
        self.is_generator = any(
            isinstance(sub, (ast.Yield, ast.YieldFrom)) for sub in self.own)
        #: bare names of every call in this function's own body
        self.called_names: Set[str] = set()
        #: bare names called directly in a ``return f(...)`` statement —
        #: the function hands its caller whatever f produces, so effects
        #: propagate through it (``def post(m): return engine.process(...)``)
        self.return_call_names: Set[str] = set()
        def edge_name(call: ast.Call) -> Optional[str]:
            name = call_name(call)
            if name is None:
                return None
            if isinstance(call.func, ast.Attribute) and \
                    name in UBIQUITOUS_METHODS:
                return None
            return name

        for sub in self.own:
            if isinstance(sub, ast.Call):
                name = edge_name(sub)
                if name is not None:
                    self.called_names.add(name)
            elif isinstance(sub, ast.Return) and isinstance(sub.value, ast.Call):
                name = edge_name(sub.value)
                if name is not None:
                    self.return_call_names.add(name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = "gen" if self.is_generator else "fn"
        return f"<{tag} {self.qualname}>"


class CallGraph:
    """Name-indexed function registry with reachability queries."""

    def __init__(self, modules: List[ModuleInfo]):
        self.functions: List[FunctionInfo] = []
        self.by_name: Dict[str, List[FunctionInfo]] = {}
        #: module -> its definitions, in source (depth-first) order
        self.by_module: Dict[ModuleInfo, List[FunctionInfo]] = {}
        for module in modules:
            start = len(self.functions)
            self._collect(module)
            self.by_module[module] = self.functions[start:]
        for fn in self.functions:
            self.by_name.setdefault(fn.name, []).append(fn)

    def _collect(self, module: ModuleInfo) -> None:
        def visit(node: ast.AST, owner: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, _FUNC_NODES):
                    self.functions.append(FunctionInfo(module, child, owner))
                    # nested defs are indexed too (closures can block)
                    inner = f"{owner}.{child.name}" if owner else child.name
                    visit(child, inner)
                elif isinstance(child, ast.ClassDef):
                    inner = f"{owner}.{child.name}" if owner else child.name
                    visit(child, inner)
                else:
                    visit(child, owner)

        visit(module.tree, "")

    # -- queries -----------------------------------------------------------

    def resolve(self, name: str) -> List[FunctionInfo]:
        """Every scanned definition a call to *name* may reach."""
        return self.by_name.get(name, [])

    def resolve_call(self, call: ast.Call) -> List[FunctionInfo]:
        name = call_name(call)
        if name is None:
            return []
        return self.resolve(name)

    def callees(self, fn: FunctionInfo) -> Set[FunctionInfo]:
        out: Set[FunctionInfo] = set()
        for name in fn.called_names:
            out.update(self.by_name.get(name, ()))
        return out

    def reachable(
        self,
        fn: FunctionInfo,
        prune: Optional[Callable[[FunctionInfo], bool]] = None,
    ) -> Set[FunctionInfo]:
        """Transitive closure of :meth:`callees` from *fn* (inclusive).

        *prune* stops the traversal at matching functions: they are not
        entered and nothing is reached *through* them.  The message
        graph uses this to treat the transport layer as opaque."""
        seen: Set[FunctionInfo] = {fn}
        frontier = [fn]
        while frontier:
            current = frontier.pop()
            for callee in self.callees(current):
                if callee in seen:
                    continue
                if prune is not None and prune(callee):
                    continue
                seen.add(callee)
                frontier.append(callee)
        return seen
