"""DexVet's rules: one registry, every rule a function of one context.

A rule maps the shared :class:`VetContext` (parsed modules and their
scans, call graph, effect table, message graph) to its findings, each a
``(path, line, message)``; ``@rule(name)`` registers it under the name
:func:`run_rules` stamps on every :class:`Violation`, and the CLI selects
from :data:`REGISTRY`.  A per-file rule reads ``scan.nodes``, the one walk
of its module.  A finding is fixed, never suppressed.

Message-type facts come from the message graph only:

* ``handler-totality`` — every message type that is *sent* somewhere
  must have a handler *registered* somewhere, or dispatch raises on
  delivery.
* ``orphan-message-type`` — a member that is never sent, posted,
  requested, or produced as a reply is dead protocol surface.
* ``reply-pairing`` — a type awaited via ``.request(...)`` must have a
  reply (``make_reply``) reachable from its handlers, or the requester
  waits forever.
* ``chaos-reachability`` — every message type needs a ``CONTROL_SIZES``
  entry, and fabric-internal delivery helpers (``_send_impl``,
  ``_Flight``) are not used from outside the fabric, or the chaos hooks
  are bypassed.
* ``retry-discipline`` — a type awaited via ``.request(...)`` declares
  a ``TIMEOUT_CLASSES`` entry, and nobody hand-rolls exponential backoff.

The rest read the call graph, the effect table or one file at a time:

* ``dropped-wait`` — a call to a blocking (generator) function whose
  result is discarded never drives it: the simulated wait never happens.
* ``inject-coverage`` — cross-node sends pass through a fabric frontend
  that stamps trace context; no direct ``.dispatch(...)`` outside ``net``.
* ``yield-discipline`` — a process yields a delay or a waitable; a
  ``timeout`` call is only for a deadline raced by ``any_of`` or joined
  by ``all_of``; and ``sim/``, ``core/``, ``net/`` and ``runtime/`` define
  no Python-level ``__next__`` awaiter.
* ``lens-sink-discipline`` — observers attach through ``add_hook``, phase
  labels come from ``PathPhase``, and outside ``obs/`` and ``check/`` a
  site never guards on an observer (``sanitizer``, ``deadlocks``,
  ``detector``, ``scope``) being None.
* ``metric-discipline`` and ``serve-discipline`` — see each docstring.
* ``directory-encapsulation`` — only ``core/directory.py`` touches the
  directory backends' storage internals.
* ``sim-nondeterminism`` — no wall clocks, OS entropy or unseeded RNG in
  simulation code, and no interpreter-global state in ``sim/``, ``net/``
  and ``core/`` (a module-level empty container, an ``itertools.count``
  not held by ``self.``): determinism per seed is load-bearing.
* ``gc-discipline`` — the program never runs or switches Python's cyclic
  collector: a finished run frees itself by reference counting.
* ``frozen-input`` — no ``setflags(write=...)`` other than ``False`` and no
  assignment to an array's write flag: frame slots keep frozen inputs'
  pages by reference.
* ``third-party-layering`` — no scipy import; numpy at module level only in
  ``apps/``, ``serve/`` and ``runtime/array.py``, elsewhere ``numpy.random``.
* ``distance-kernel`` — no ``sum`` over axis 2: k-means distances have one
  kernel, ``repro.apps.kmeans.sq_dist``.
* ``span-discipline`` — spans open in a ``with`` (the tracer's explicit
  open/close pair is the fabric's alone); trace ids cross processes only
  in the Message header fields; the retired seam (``maybe_span``,
  ``NULL_SPAN``, ``proc.obs``) stays gone; and of ``sim/``, ``core/``,
  ``net/`` and ``chaos/`` only ``core/cluster.py`` imports
  ``repro.obs.tracing``.
* ``slots-discipline`` — engine-core classes declare ``__slots__``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.vet.callgraph import (
    CallGraph, FunctionInfo, call_name, dotted_name, iter_own_nodes,
)
from repro.vet.effects import call_effect, BLOCKING
from repro.vet.loader import ModuleInfo, ParseFailure
from repro.vet.msggraph import MessageGraph, ModuleScan, SEND_ATTRS


@dataclass(frozen=True)
class Violation:
    rule: str
    path: str
    line: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class VetContext:
    """Everything the rules share: one parse, one graph, one effect table.
    Read-only once built, so a rule's findings are kept with it."""

    modules: List[ModuleInfo]
    failures: List[ParseFailure]
    scans: List[ModuleScan]
    callgraph: CallGraph
    effects: Dict[FunctionInfo, str]
    graph: MessageGraph
    repo_mode: bool
    #: rule name -> its violations, filled by :func:`run_rules`
    findings: Dict[str, List[Violation]] = field(default_factory=dict)


#: one finding: the file, the line, and why
Finding = Tuple[object, int, str]
RuleFn = Callable[[VetContext], Iterable[Finding]]

#: name -> rule function, in registration order
REGISTRY: Dict[str, RuleFn] = {}


def rule(name: str) -> Callable[[RuleFn], RuleFn]:
    def register(fn: RuleFn) -> RuleFn:
        REGISTRY[name] = fn
        return fn
    return register


def run_rules(
    ctx: VetContext, names: Optional[Sequence[str]] = None
) -> List[Violation]:
    """Run the selected rules (default: all registered) plus parse
    failures, sorted by ``(path, line, rule)``."""
    selected = list(REGISTRY) if names is None else list(names)
    violations: List[Violation] = [
        Violation("parse-error", f.path, f.line, f.message)
        for f in ctx.failures
    ]
    for name in selected:
        if name not in ctx.findings:
            if name not in REGISTRY:
                raise ValueError(f"unknown rule: {name!r}")
            ctx.findings[name] = [
                Violation(name, str(path), line, message)
                for path, line, message in REGISTRY[name](ctx)
            ]
        violations.extend(ctx.findings[name])
    violations.sort(key=lambda v: (v.path, v.line, v.rule))
    return violations


def _under(module: ModuleInfo, *dirs: str) -> bool:
    """Does *module* lie in a directory named one of *dirs*?"""
    return any(part in dirs for part in module.parts[:-1])


def _spelled(node: ast.AST) -> Optional[str]:
    """The identifier *node* spells — a name, an attribute's tail, an
    imported name, a definition or a parameter — else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return node.name
    if isinstance(node, ast.arg):
        return node.arg
    return None


def _targets(node: ast.AST) -> List[ast.expr]:
    return node.targets if isinstance(node, ast.Assign) else [node.target]


def _is_self_attr(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
        and node.value.id == "self"


# ---------------------------------------------------------------------------
# whole-program rules


@rule("handler-totality")
def _check_handler_totality(ctx: VetContext) -> Iterable[Finding]:
    for name in sorted(ctx.graph.nodes):
        node = ctx.graph.nodes[name]
        sends = node.one_way_sends
        if sends and not node.handler_regs:
            site = min(sends, key=lambda s: (s.module.rel, s.line))
            yield site.module.path, site.line, (
                f"MsgType.{name} is sent via .{site.via}() but no handler is "
                f"registered on any Router — delivery raises at dispatch")


@rule("orphan-message-type")
def _check_orphan_message_types(ctx: VetContext) -> Iterable[Finding]:
    for name in sorted(ctx.graph.nodes):
        node = ctx.graph.nodes[name]
        if not node.send_sites and not node.is_reply_type:
            yield _defining_path(ctx, node.defined_in), node.defined_line, (
                f"MsgType.{name} is never sent, posted, requested, or "
                f"produced as a reply — dead protocol surface on the "
                f"send side (wire it or delete it)")


def _defining_path(ctx: VetContext, rel: str) -> str:
    for module in ctx.modules:
        if module.rel == rel:
            return str(module.path)
    return rel


@rule("reply-pairing")
def _check_reply_pairing(ctx: VetContext) -> Iterable[Finding]:
    for name in sorted(ctx.graph.nodes):
        node = ctx.graph.nodes[name]
        if not node.is_requested or node.replies:
            continue
        site = min((s for s in node.send_sites if s.via == "request"),
                   key=lambda s: (s.module.rel, s.line))
        if node.handler_fns:
            detail = "no make_reply is reachable from its handlers"
        elif node.handler_regs:
            detail = "its registered handler resolves to no known function"
        else:
            detail = "it has no registered handler at all"
        yield site.module.path, site.line, (
            f"MsgType.{name} is awaited via .request() but {detail} — "
            f"the requester would wait forever")


@rule("dropped-wait")
def _check_dropped_wait(ctx: VetContext) -> Iterable[Finding]:
    for fn in ctx.callgraph.functions:
        loads: Set[str] = {n.id for n in fn.own if isinstance(n, ast.Name)
                           and isinstance(n.ctx, ast.Load)}
        for node in fn.own:
            call = getattr(node, "value", None)
            if not isinstance(call, ast.Call):
                continue
            name = call_name(call)
            if isinstance(node, ast.Expr):
                why = (f"call to blocking '{name}(...)' as a bare statement: "
                       f"the generator is built and dropped, the simulated "
                       f"wait never happens — drive it with 'yield from' or "
                       f"spawn it via engine.process(...)")
            elif isinstance(node, ast.Yield):
                why = (f"'yield {name}(...)' hands the engine a generator, "
                       f"not a waitable — use 'yield from {name}(...)'")
            elif isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name) \
                    and node.targets[0].id not in loads:
                why = (f"result of blocking '{name}(...)' bound to "
                       f"'{node.targets[0].id}' but never driven — the "
                       f"simulated wait never happens")
            else:
                continue
            if call_effect(ctx.callgraph, ctx.effects, call) is BLOCKING:
                yield fn.module.path, call.lineno, why


#: the engine-core packages: a sleep is spelled one way there even
#: outside repo mode, and a waitable is never a Python-level iterator
_ENGINE_CORE = ("sim", "core", "net", "runtime")

_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _is_timeout(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
        and node.func.attr == "timeout"


def _raced_timeouts(scan: ModuleScan) -> Set[int]:
    """The ids of the nodes a scope races or joins: inside the arguments
    of an ``any_of``/``all_of`` call, or a value bound to a name that is."""
    raced: Set[int] = set()
    for scope in [scan.tree, *(n for n in scan.nodes if isinstance(n, _SCOPE_NODES))]:
        own = list(iter_own_nodes(scope))
        names: Set[str] = set()
        for node in own:
            if isinstance(node, ast.Call) and call_name(node) in ("any_of", "all_of"):
                for arg in [*node.args, *(kw.value for kw in node.keywords)]:
                    for sub in ast.walk(arg):
                        raced.add(id(sub))
                        if isinstance(sub, ast.Name):
                            names.add(sub.id)
        raced.update(id(node.value) for node in own if isinstance(node, ast.Assign)
                     and any(isinstance(t, ast.Name) and t.id in names
                             for t in node.targets))
    return raced


@rule("yield-discipline")
def _check_yield_discipline(ctx: VetContext) -> Iterable[Finding]:
    """A generator process yields a delay in microseconds (a private sleep)
    or a waitable; a constant that is neither — nothing, None, a string, a
    negative number — fails the process at run time.  Names, attributes
    and arithmetic are taken on trust.  In ``src/`` (repo mode) and in
    the engine-core packages a sleep has one spelling: a ``timeout`` call
    is a finding unless it is an ``any_of``/``all_of`` argument or bound to
    a name that is one.  And the engine-core packages define no
    ``__next__`` (by ``def`` or by binding): a Python-level awaiter plus
    its StopIteration costs 2.4-5.7x a plain generator."""
    not_waitable = ("generator processes may only yield a delay in "
                    "microseconds >= 0 or a waitable (Event/Timeout/Process)")
    for scan in ctx.scans:
        core = _under(scan.module, *_ENGINE_CORE)
        raced: Optional[Set[int]] = None
        if (ctx.repo_mode or core) and any(map(_is_timeout, scan.nodes)):
            raced = _raced_timeouts(scan)
        yielded: Set[int] = set()
        for node in scan.nodes:
            if isinstance(node, ast.Yield):
                value = node.value
                negated = isinstance(value, ast.UnaryOp) and isinstance(value.op, ast.USub)
                constant = value.operand if negated else value
                if value is None:
                    shown = "bare yield"
                elif isinstance(constant, ast.Constant) and (
                        negated or type(constant.value) not in (int, float)):
                    shown = f"yield {'-' * negated}{constant.value!r}"
                else:
                    if _is_timeout(value) and len(value.args) == 1 \
                            and not value.keywords:
                        yielded.add(id(value))
                    continue
                yield scan.path, node.lineno, f"{shown}: {not_waitable}"
            elif raced is not None and _is_timeout(node) and id(node) not in raced:
                shown = '.'.join(dotted_name(node.func)) or '<expr>.timeout'
                if id(node) in yielded:
                    why = (f"yield {shown}(...): a private sleep spelled the "
                           f"old way — yield the delay itself")
                else:
                    why = f"'{shown}(...)' outside any_of/all_of"
                yield scan.path, node.lineno, (
                    f"{why}; a Timeout is for a deadline that is raced "
                    f"(any_of) or joined (all_of)")
            elif core and (isinstance(node, ast.FunctionDef) or isinstance(
                    node, ast.Name) and isinstance(node.ctx, ast.Store)) \
                    and _spelled(node) == "__next__":
                yield scan.path, node.lineno, (
                    "'__next__' in an engine-core package: a Python-level "
                    "awaiter costs 2.4-5.7x a generator — a fast path returns "
                    "a generator")


@rule("inject-coverage")
def _check_inject_coverage(ctx: VetContext) -> Iterable[Finding]:
    for scan in ctx.scans:
        # (a) direct dispatch outside the net layer bypasses trace
        #     stamping and the chaos delivery hooks
        if "net" not in scan.module.parts:
            for node in scan.nodes:
                if isinstance(node, ast.Call) and isinstance(
                        node.func, ast.Attribute) and node.func.attr == "dispatch":
                    yield scan.path, node.lineno, (
                        "direct '.dispatch(...)' outside the net layer "
                        "bypasses Tracer.inject and the chaos delivery "
                        "hooks — go through send/post/request")
        # (b) a fabric frontend (class with both send and _send_impl) must
        #     stamp trace context before handing off — in send itself or
        #     in its traced twin _send_traced
        for cls in scan.nodes:
            if not isinstance(cls, ast.ClassDef):
                continue
            defs = {stmt.name: stmt for stmt in cls.body
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))}
            if "send" not in defs or "_send_impl" not in defs:
                continue
            frontends = [defs[name] for name in ("send", "_send_traced")
                         if name in defs]
            if not any(isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Attribute) and node.func.attr == "inject"
                    for fn in frontends for node in ast.walk(fn)):
                yield scan.path, defs["send"].lineno, (
                    f"{cls.name}.send has no Tracer.inject call — "
                    f"cross-node messages leave without trace context "
                    f"and spans cannot be stitched across nodes")


#: fabric-internal delivery helpers (functions, and the class whose
#: construction launches a message): calling these directly skips the
#: chaos on_send/on_deliver interposition points
_FABRIC_INTERNALS = frozenset({"_send_impl", "_Flight"})


@rule("chaos-reachability")
def _check_chaos_reachability(ctx: VetContext) -> Iterable[Finding]:
    # (a) CONTROL_SIZES totality, when the table is in scope
    if "CONTROL_SIZES" in ctx.graph.tables:
        for name, node in ctx.graph.nodes.items():
            if not node.has_control_size:
                yield _defining_path(ctx, node.defined_in), node.defined_line, (
                    f"MsgType.{name} has no CONTROL_SIZES entry — the "
                    f"fabric cannot size its frames and fault injection "
                    f"cannot target it")
    # (b) fabric internals called from outside their defining module
    defining: Dict[str, Set[str]] = {}
    for fn in ctx.callgraph.functions:
        if fn.name in _FABRIC_INTERNALS:
            defining.setdefault(fn.name, set()).add(fn.module.rel)
    for scan in ctx.scans:
        for node in scan.tree.body:  # module-level classes
            if isinstance(node, ast.ClassDef) and node.name in _FABRIC_INTERNALS:
                defining.setdefault(node.name, set()).add(scan.module.rel)
    if not defining:
        return
    for scan in ctx.scans:
        for node in scan.nodes:
            # attribute tail or bare name: the flight can be imported and
            # constructed without going through an object
            name = call_name(node) if isinstance(node, ast.Call) else None
            if name in defining and scan.module.rel not in defining[name]:
                yield scan.path, node.lineno, (
                    f"call to fabric-internal '{name}(...)' from outside the "
                    f"fabric bypasses the chaos on_send/on_deliver hooks — "
                    f"go through send/post/request")


_LIST_MUTATORS = frozenset({"append", "extend", "insert", "remove", "clear"})


def _probe_list(node: ast.AST) -> Optional[str]:
    """How *node* spells a probe list — ``x.hooks[...]``, a held
    ``x._on_<probe>`` or the registry's ``observers`` — else None."""
    if isinstance(node, ast.Subscript):
        node = node.value
        if isinstance(node, ast.Attribute) and node.attr == "hooks":
            return ".hooks[...]"
    elif isinstance(node, ast.Attribute) and (
            node.attr == "observers" or node.attr.startswith("_on_")):
        return "." + node.attr
    return None


def _mutated_probe_list(node: ast.AST) -> Optional[str]:
    """The probe list *node* mutates, if any; binding a held list
    (``self._on_x = hooks[...]``) is how a site starts, not a mutation."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr in _LIST_MUTATORS:
        return _probe_list(node.func.value)
    touched = None
    if isinstance(node, (ast.Assign, ast.AugAssign)):
        for target in _targets(node):
            spelled = _probe_list(target)
            if spelled and not spelled.startswith("._on_"):
                touched = spelled
    return touched


#: who watches a run; a site names the probe it fires, never one of these
_OBSERVER_NAMES = ("sanitizer", "deadlocks", "detector", "scope")
#: the two modules sanctioned to guard on one: the cluster's close() and
#: the serve manager's scope attach
_OBSERVER_GUARD_SITES = (("core", "cluster.py"), ("serve", "manager.py"))


def _observer_guard(node: ast.Compare) -> Optional[str]:
    """The observer *node* asks about (``x.sanitizer is None``), if any."""
    for left, op, right in zip([node.left, *node.comparators], node.ops,
                               node.comparators):
        named = _spelled(left) if isinstance(left, (ast.Name, ast.Attribute)) else None
        if named and named.endswith(_OBSERVER_NAMES) and isinstance(
                op, (ast.Is, ast.IsNot)) and isinstance(right, ast.Constant) \
                and right.value is None:
            return named
    return None


@rule("lens-sink-discipline")
def _check_lens_sink_discipline(ctx: VetContext) -> Iterable[Finding]:
    """Observers and DexLens consumers: (a) whoever watches a run hooks in
    via add_hook only — the registry's add (sim/engine.py) is the one place
    a probe list grows, so a list a site holds is never stale or reordered;
    (b) critical-path phase labels come from the PathPhase enum
    (repro.obs.export), never re-spelled as string literals; (c) outside
    obs/ and check/ a site does not ask whether an observer is attached
    (``x.sanitizer is None``): it fires its probe, and the observers bound
    to it run."""
    for scan in ctx.scans:
        owns_lists = scan.module.rel.endswith("sim/engine.py")
        guards = not _under(scan.module, "obs", "check") and \
            scan.module.parts[-2:] not in _OBSERVER_GUARD_SITES
        for node in scan.nodes:
            if isinstance(node, ast.Compare):
                named = _observer_guard(node) if guards else None
                if named:
                    yield scan.path, node.lineno, (
                        f"guard on observer '{named}' — a site fires its "
                        f"probe and never asks who watches (only obs/, "
                        f"check/, core/cluster.py and serve/manager.py do)")
                continue
            # (a) direct mutation of a probe list
            touched = None if owns_lists else _mutated_probe_list(node)
            if touched is not None:
                yield scan.path, node.lineno, (
                    f"direct mutation of probe list '{touched}' — "
                    f"observers register via add_hook(...) only")
            # (b) phase labels spelled as string literals
            for kw in node.keywords if isinstance(node, ast.Call) else ():
                if kw.arg == "phase" and isinstance(kw.value, ast.Constant) \
                        and isinstance(kw.value.value, str):
                    yield scan.path, kw.value.lineno, (
                        f"critical-path phase label {kw.value.value!r} "
                        f"spelled as a string literal — use the shared "
                        f"PathPhase enum (repro.obs.export), e.g. "
                        f"PathPhase.QUEUE.value")


# -- metric-discipline ---------------------------------------------------------

#: the typed metric constructors of repro.obs.metrics; outside the obs
#: layer they must be reached through MetricsRegistry registration
_METRIC_CTORS = frozenset({"Counter", "Histogram"})
_METRIC_MODULES = frozenset({"repro.obs.metrics", "repro.obs"})
#: attribute names that smell like a hand-rolled metrics store
_STAT_DICT_NAMES = ("stats", "metrics", "counters")


def _is_stat_dict_name(attr: str) -> bool:
    return attr in _STAT_DICT_NAMES or any(
        attr.endswith("_" + name) for name in _STAT_DICT_NAMES)


@rule("metric-discipline")
def _check_metric_discipline(ctx: VetContext) -> Iterable[Finding]:
    """Metrics go through a MetricsRegistry, nowhere else.

    Outside the obs layer, (a) constructing ``Counter``/``Histogram``
    directly bypasses the registry's single registration,
    snapshot, and report path (and its kind-collision check); (b) a
    ``self.stats = {}``-style ad-hoc dict in place of registry families
    dodges the typed metrics entirely — per-key bounds, label handling,
    and the manifest/diff export all miss it.  Import-aware: only names
    actually imported from ``repro.obs.metrics`` count, so
    ``collections.Counter`` users stay clean."""
    for scan in ctx.scans:
        if "obs" in scan.module.parts:
            continue  # the metrics layer itself wires its own internals
        metric_aliases: Dict[str, str] = {}
        module_aliases: Set[str] = set()
        for node in scan.nodes:
            if isinstance(node, ast.ImportFrom) and node.module in _METRIC_MODULES:
                metric_aliases.update((alias.asname or alias.name, alias.name)
                                      for alias in node.names
                                      if alias.name in _METRIC_CTORS)
            elif isinstance(node, ast.Import):
                module_aliases.update(alias.asname for alias in node.names
                                      if alias.name in _METRIC_MODULES and alias.asname)
        for node in scan.nodes:
            if isinstance(node, ast.Call):
                func, ctor = node.func, None
                if isinstance(func, ast.Name) and func.id in metric_aliases:
                    ctor = metric_aliases[func.id]
                elif isinstance(func, ast.Attribute) and func.attr in _METRIC_CTORS \
                        and isinstance(func.value, ast.Name) \
                        and func.value.id in module_aliases:
                    ctor = func.attr
                if ctor is not None:
                    yield scan.path, node.lineno, (
                        f"direct {ctor}(...) construction outside the obs "
                        f"layer — register through a MetricsRegistry family "
                        f"(registry.{ctor.lower()}(name, ...)) so the metric "
                        f"shares the snapshot/report path")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) \
                    and isinstance(node.value, ast.Dict):
                for target in _targets(node):
                    if _is_self_attr(target) and _is_stat_dict_name(target.attr):
                        yield scan.path, node.lineno, (
                            f"ad-hoc stat dict 'self.{target.attr}' — use "
                            f"MetricsRegistry counter/histogram families "
                            f"instead of a hand-rolled dict (typed, bounded, "
                            f"exported by manifests)")


# -- serve-discipline ----------------------------------------------------------

#: the policy-only mutation surface of repro.serve.queueing.ServeQueue
_SERVE_QUEUE_API = frozenset({"commit_admit", "evict_oldest"})
#: every way the backlog deque can be mutated
_BACKLOG_MUTATORS = frozenset({
    "append", "appendleft", "extend", "insert", "remove", "clear",
    "pop", "popleft",
})
#: admission-decision tallies that belong in the metrics registry
_SERVE_DECISION_COUNTS = frozenset({
    "injected", "admitted", "rejected", "throttled", "shed",
})
#: the request statuses that refuse work, by name and by value
_SERVE_REFUSALS = {"REJECTED": "rejected", "THROTTLED": "throttled",
                   "SHED": "shed"}


@rule("serve-discipline")
def _check_serve_discipline(ctx: VetContext) -> Iterable[Finding]:
    """DexServe admission control flows through the policy interface and
    its accounting through the metrics registry, nowhere else.

    (a) ``_backlog`` is ServeQueue-private: mutating it from outside
    ``serve/queueing.py`` bypasses the depth high-water mark and the
    one-waiter-per-admit wakeup; (b) ``commit_admit``/``evict_oldest``
    are the policy layer's entry points — a manager or worker calling
    them has made an admission decision outside any policy; (c) the
    verdict is the request's status, so a REJECTED, THROTTLED or SHED
    status assigned outside ``serve/policy.py`` / ``serve/queueing.py``
    is an unaccountable decision (by an imported name, import-aware so
    unrelated constants of the same name stay clean, or by its string
    value in a serving module); (d) tallying decisions on ad-hoc ``self``
    attributes instead of registry counters hides them from the SLO
    report and the scope time-series."""
    for scan in ctx.scans:
        home = scan.module.parts[-2:]
        owns_queue = home == ("serve", "queueing.py")
        is_policy = owns_queue or home == ("serve", "policy.py")
        serveish = "serve" in scan.module.parts
        refusal_aliases: Set[str] = set()
        for node in scan.nodes:
            mod = (node.module or "") if isinstance(node, ast.ImportFrom) else None
            if mod is not None and (
                    mod in ("repro.serve", "repro.serve.policy", "policy",
                            "queueing")
                    or mod.endswith((".serve", "serve.policy",
                                     "serve.queueing"))):
                serveish = True
                refusal_aliases.update(alias.asname or alias.name
                                       for alias in node.names
                                       if alias.name in _SERVE_REFUSALS)
        for node in scan.nodes:
            if isinstance(node, ast.Call):
                func = node.func
                attr = func.attr if isinstance(func, ast.Attribute) else None
                if not owns_queue and attr in _BACKLOG_MUTATORS and isinstance(
                        func.value, ast.Attribute) and func.value.attr == "_backlog":
                    yield scan.path, node.lineno, (
                        f"direct '._backlog.{attr}(...)' outside ServeQueue — "
                        f"admit through an AdmissionPolicy (queue.commit_admit "
                        f"is the policy-only surface)")
                elif not is_policy and attr in _SERVE_QUEUE_API:
                    yield scan.path, node.lineno, (
                        f"'.{attr}(...)' called outside the admission policy "
                        f"layer — route the request through "
                        f"AdmissionPolicy.decide(...) instead")
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                for target in _targets(node):
                    value = node.value
                    if not is_policy and isinstance(node, ast.Assign) \
                            and isinstance(target, ast.Attribute) \
                            and target.attr == "status" and (
                                isinstance(value, ast.Name)
                                and value.id in refusal_aliases
                                or serveish and isinstance(value, ast.Constant)
                                and value.value in _SERVE_REFUSALS.values()):
                        yield scan.path, node.lineno, (
                            "refusal status assigned outside serve/policy.py "
                            "/ serve/queueing.py — only policies may decide; "
                            "leave it from an AdmissionPolicy.decide(...) "
                            "override")
                    if not owns_queue and isinstance(target, ast.Attribute) \
                            and target.attr == "_backlog":
                        yield scan.path, node.lineno, (
                            "assignment to '._backlog' outside ServeQueue — "
                            "the backlog deque is queue-private")
                    elif serveish and isinstance(node, ast.AugAssign) \
                            and _is_self_attr(target) \
                            and target.attr in _SERVE_DECISION_COUNTS:
                        yield scan.path, node.lineno, (
                            f"ad-hoc decision tally 'self.{target.attr}' — "
                            f"count admission outcomes through the "
                            f"MetricsRegistry serve_*_total counters so the "
                            f"SLO report and scope series see them")


# -- directory-encapsulation, sim-nondeterminism, span- and slots-discipline --

#: attribute names that are directory storage internals
_DIRECTORY_INTERNALS = frozenset({"directory_shard", "shard_map",
                                  "shard_map_copy"})


@rule("directory-encapsulation")
def _check_directory_encapsulation(ctx: VetContext) -> Iterable[Finding]:
    for scan in ctx.scans:
        if scan.path.name == "directory.py":
            continue
        for node in scan.nodes:
            if isinstance(node, ast.Attribute) and node.attr in _DIRECTORY_INTERNALS:
                yield scan.path, node.lineno, (
                    f"access to directory internal '.{node.attr}' outside "
                    f"core/directory.py; go through the CoherenceDirectory "
                    f"interface")


#: fully dotted call suffixes that read wall clocks or OS entropy
_WALL_CLOCK_CALLS = frozenset({
    ("time", "time"), ("time", "time_ns"), ("time", "monotonic"),
    ("time", "monotonic_ns"), ("time", "perf_counter"),
    ("time", "perf_counter_ns"), ("datetime", "now"), ("datetime", "utcnow"),
    ("os", "urandom"), ("uuid", "uuid4"),
})

#: numpy.random constructors that are deterministic when given a seed
_SEEDED_RNG_CTORS = frozenset({"default_rng", "RandomState", "SeedSequence",
                               "Generator", "PCG64", "Philox"})

#: directories exempt from the nondeterminism rule when vetting the repo:
#: offline tooling that never runs inside a simulation
_NONDETERMINISM_EXEMPT_PARTS = ("bench", "tools", "check", "vet")

#: the packages whose ids and pools belong to a cluster, never to the
#: interpreter: what outlives a cluster makes a run depend on what ran
#: before it
_CLUSTER_OWNED = ("sim", "net", "core")
_EMPTY_CTORS = frozenset({"list", "dict", "set"})


def _imported(node: ast.AST) -> List[str]:
    """The absolute module names an import statement loads."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and not node.level:
        return [node.module]
    return []


def _nondeterminism_of(node: ast.AST) -> List[str]:
    """Why *node* makes a simulation nondeterministic: one reason per
    finding, none when it does not."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return ["import of the unseeded 'random' module inside sim code"
                for name in _imported(node) if name.split(".")[0] == "random"]
    dotted = dotted_name(node.func) if isinstance(node, ast.Call) else ()
    if len(dotted) < 2:
        return []
    shown = ".".join(dotted)
    if dotted[-2:] in _WALL_CLOCK_CALLS:
        return [f"wall-clock/entropy call '{shown}()' inside sim code; use "
                f"engine time"]
    if "random" in dotted[:-1]:
        # something.random.<fn>(...): numpy-style RNG access
        if dotted[-1] not in _SEEDED_RNG_CTORS:
            return [f"'{shown}()' draws from global RNG state; use a seeded "
                    f"default_rng"]
        if not node.args and not node.keywords:
            return [f"'{shown}()' without a seed is nondeterministic"]
    elif dotted[0] == "random":
        return [f"'{shown}()' uses the unseeded 'random' module inside sim "
                f"code"]
    return []


def _global_state(scan: ModuleScan) -> Iterable[Finding]:
    """Interpreter-global state: a module-level binding of an empty
    container, and an ``itertools.count`` not held by a ``self.``
    attribute (an id counter belongs to the object that owns the ids)."""
    for stmt in scan.tree.body:
        value = stmt.value if isinstance(stmt, (ast.Assign, ast.AnnAssign)) else None
        if isinstance(value, ast.Call):
            empty = not value.args and not value.keywords and \
                isinstance(value.func, ast.Name) and value.func.id in _EMPTY_CTORS
        else:
            empty = isinstance(value, (ast.List, ast.Dict)) and \
                not (value.elts if isinstance(value, ast.List) else value.keys)
        if empty:
            yield scan.path, stmt.lineno, (
                f"module-level '{ast.unparse(stmt)}' outlives a cluster: a "
                f"run would depend on what ran before it — keep it on a "
                f"cluster-owned object")
    counters: Set[Tuple[str, ...]] = set()
    for node in scan.nodes:
        if isinstance(node, ast.Import):
            counters.update((a.asname or a.name, "count")
                            for a in node.names if a.name == "itertools")
        elif isinstance(node, ast.ImportFrom) and node.module == "itertools":
            counters.update((a.asname or a.name,)
                            for a in node.names if a.name == "count")
    if not counters:
        return
    held = {id(node.value) for node in scan.nodes if isinstance(node, ast.Assign)
            and all(map(_is_self_attr, node.targets))}
    for node in scan.nodes:
        if isinstance(node, ast.Call) and id(node) not in held \
                and dotted_name(node.func) in counters:
            yield scan.path, node.lineno, (
                f"'{'.'.join(dotted_name(node.func))}(...)' not held by a "
                f"'self.' attribute: ids belong to the object that owns them")


@rule("sim-nondeterminism")
def _check_sim_nondeterminism(ctx: VetContext) -> Iterable[Finding]:
    for scan in ctx.scans:
        if ctx.repo_mode and any(part in _NONDETERMINISM_EXEMPT_PARTS
                                 for part in scan.module.parts):
            continue
        for node in scan.nodes:
            for why in _nondeterminism_of(node):
                yield scan.path, node.lineno, why
        if _under(scan.module, *_CLUSTER_OWNED):
            yield from _global_state(scan)


#: the ``gc`` calls that run or switch the cyclic collector
_GC_CALLS = frozenset({"collect", "disable", "enable", "freeze",
                       "set_threshold"})


@rule("gc-discipline")
def _check_gc_discipline(ctx: VetContext) -> Iterable[Finding]:
    for scan in ctx.scans:
        for node in scan.nodes:
            if isinstance(node, ast.ImportFrom) and node.module == "gc":
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Call) and \
                    dotted_name(node.func)[:-1] == ("gc",):
                names = [node.func.attr]
            else:
                continue
            for name in names:
                if name in _GC_CALLS:
                    yield scan.path, node.lineno, (
                        f"'gc.{name}' in the program: free a run by cutting "
                        f"its cycles, and leave the collector to the host")


#: what ``flags[...]`` calls the write flag
_WRITE_FLAG_KEYS = frozenset({"WRITEABLE", "W"})


def _thawed_flag(target: ast.expr) -> Optional[str]:
    """How *target* spells an array's write flag, else None."""
    if isinstance(target, ast.Attribute) and target.attr == "writeable" \
            and _spelled(target.value) == "flags":
        return "flags.writeable"
    if isinstance(target, ast.Subscript) and _spelled(target.value) == "flags" \
            and isinstance(target.slice, ast.Constant) \
            and target.slice.value in _WRITE_FLAG_KEYS:
        return f"flags[{target.slice.value!r}]"
    return None


def _false(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value is False


@rule("frozen-input")
def _check_frozen_input(ctx: VetContext) -> Iterable[Finding]:
    """Nothing makes an array writable again: a frame slot keeps a frozen
    input's pages by reference (``memory/frames.py``), so a thawed input
    would be a write into simulated memory that no protocol step saw."""
    for scan in ctx.scans:
        for node in scan.nodes:
            if isinstance(node, ast.Call) and call_name(node) == "setflags":
                write = [kw.value for kw in node.keywords
                         if kw.arg == "write"] + node.args[:1]
                if write and not _false(write[0]):
                    yield scan.path, node.lineno, (
                        "'setflags(write=...)' may thaw a frozen array: "
                        "copy it to get a writable one")
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) \
                    and not _false(node.value):
                for target in _targets(node):
                    spelled = _thawed_flag(target)
                    if spelled is not None:
                        yield scan.path, node.lineno, (
                            f"assigning '{spelled}' may thaw a frozen "
                            f"array: copy it to get a writable one")


@rule("third-party-layering")
def _check_third_party_layering(ctx: VetContext) -> Iterable[Finding]:
    for scan in ctx.scans:
        numeric = _under(scan.module, "apps", "serve") or \
            scan.module.parts[-2:] == ("runtime", "array.py")
        top = {id(node) for node in iter_own_nodes(scan.tree)}
        for node in scan.nodes:
            for name in _imported(node):
                root = name.split(".")[0]
                if root == "scipy":
                    why = "scipy is a test oracle, not a run dependency"
                elif root != "numpy" or numeric or (
                        id(node) not in top and name == "numpy.random"):
                    continue
                else:
                    why = ("numpy at module level only in apps/, serve/ and "
                           "runtime/array.py, elsewhere a function-level "
                           "numpy.random")
                yield scan.path, node.lineno, f"import of '{name}': {why}"


@rule("distance-kernel")
def _check_distance_kernel(ctx: VetContext) -> Iterable[Finding]:
    """k-means distances have one kernel, ``repro.apps.kmeans.sq_dist``,
    the reduction written out left to right; a ``sum`` over axis 2 is the
    broadcast expression it replaced (numpy's ``_sum`` was 28.7 % of
    KMN-optimized)."""
    for scan in ctx.scans:
        for node in scan.nodes:
            if not isinstance(node, ast.Call) or call_name(node) != "sum":
                continue
            axes = [kw.value for kw in node.keywords if kw.arg == "axis"]
            if isinstance(node.func, ast.Attribute):
                # np.sum(x, axis) or x.sum(axis)
                at = int(dotted_name(node.func)[:-1] in (("np",), ("numpy",)))
                axes += node.args[at:at + 1]
            if any(isinstance(a, ast.Constant) and a.value == 2 for a in axes):
                shown = '.'.join(dotted_name(node.func)) or '<expr>.sum'
                yield scan.path, node.lineno, (
                    f"'{shown}(...)' over axis 2: k-means distances go "
                    f"through repro.apps.kmeans.sq_dist, the one kernel")


#: the tracer's explicit pair: only a message in flight (engine callbacks,
#: not a generator) has no block to put a ``with`` around
_EXPLICIT_SPAN_CALLS = frozenset({"open_span", "close_span"})

#: dict keys that would smuggle trace context outside the Message fields
_TRACE_ID_KEYS = frozenset({"trace_id", "parent_span", "span_id"})

#: the retired tracing seam: a span opens with ``engine.span`` and code
#: branches on the one handle, ``engine.tracer``
_RETIRED_SEAM = re.compile("maybe_span|NULL_SPAN")
#: packages that reach the tracer through the engine: of these only
#: core/cluster.py, which builds the Tracer, imports repro.obs.tracing
_SEAM_ONLY = ("sim", "core", "net", "chaos")


@rule("span-discipline")
def _check_span_discipline(ctx: VetContext) -> Iterable[Finding]:
    for scan in ctx.scans:
        # the tracing machinery itself builds spans and serializes ids
        machinery = ctx.repo_mode and "obs" in scan.module.parts
        imports_seam = _under(scan.module, *_SEAM_ONLY) and \
            scan.module.parts[-2:] != ("core", "cluster.py")
        carries_flights = scan.module.parts[-2:] == ("net", "fabric.py")
        # calls that appear as a with-statement item are the sanctioned
        # form, and so is the seam's one pass-through (``Engine.span``
        # returning the tracer's span)
        with_calls: Set[int] = set() if machinery else {
            id(item.context_expr) for node in scan.nodes
            if isinstance(node, (ast.With, ast.AsyncWith))
            for item in node.items
        } | {
            id(ret.value) for cls in scan.nodes
            if isinstance(cls, ast.ClassDef) and cls.name == "Engine"
            for fn in cls.body
            if isinstance(fn, ast.FunctionDef) and fn.name == "span"
            for ret in ast.walk(fn) if isinstance(ret, ast.Return)
        }
        for node in scan.nodes:
            named = _spelled(node)
            if named and _RETIRED_SEAM.search(named) or (
                    named == "obs" and isinstance(node, ast.Attribute)
                    and _spelled(node.value) == "proc"):
                yield scan.path, node.lineno, (
                    f"'{'.'.join(dotted_name(node)) or named}' is the retired "
                    f"tracing seam: open a span with 'with engine.span(...)', "
                    f"branch on engine.tracer")
            elif imports_seam and isinstance(node, (ast.Import, ast.ImportFrom)):
                for name in _imported(node):
                    if name.startswith("repro.obs.tracing"):
                        yield scan.path, node.lineno, (
                            f"import of '{name}': only core/cluster.py, "
                            f"which builds the Tracer, imports it; the rest "
                            f"reach it as engine.tracer")
            elif machinery:
                continue
            elif isinstance(node, ast.Call):
                func = node.func
                attr = func.attr if isinstance(func, ast.Attribute) else None
                if attr == "span" and id(node) not in with_calls:
                    why = ("outside a with statement: spans must be closed "
                           "by their context manager or end_us never stamps")
                elif attr in _EXPLICIT_SPAN_CALLS and not carries_flights:
                    why = ("outside net/fabric.py: only a message in flight "
                           "opens and closes spans by hand; use 'with "
                           "engine.span(...)'")
                else:
                    continue
                shown = '.'.join(dotted_name(func)) or '<expr>.' + attr
                yield scan.path, node.lineno, f"'{shown}(...)' {why}"
            elif isinstance(node, ast.Dict):
                for key in node.keys:
                    if isinstance(key, ast.Constant) and key.value in _TRACE_ID_KEYS:
                        yield scan.path, key.lineno, (
                            f"dict key {key.value!r}: trace ids cross "
                            f"processes only via the Message "
                            f"trace_id/parent_span fields")


#: base-class names that exempt a class from the slots rule
_SLOTS_EXEMPT_BASES = frozenset({
    "Enum", "IntEnum", "StrEnum", "Flag", "IntFlag",
    "BaseException", "Exception", "Warning",
})


def _slots_scope(parts: Tuple[str, ...]) -> bool:
    """Are *parts* an engine-core path the slots rule covers?"""
    return "sim" in parts[:-1] or parts[-2:] == ("net", "messages.py")


def _declares_slots(node: ast.ClassDef) -> bool:
    for stmt in node.body:
        targets = _targets(stmt) if isinstance(stmt, (ast.Assign, ast.AnnAssign)) else []
        if any(isinstance(t, ast.Name) and t.id == "__slots__" for t in targets):
            return True
    return any(
        isinstance(deco, ast.Call)
        and dotted_name(deco.func)[-1:] == ("dataclass",)
        and any(kw.arg == "slots" and isinstance(kw.value, ast.Constant)
                and kw.value.value is True for kw in deco.keywords)
        for deco in node.decorator_list
    )


def _slots_exempt_class(node: ast.ClassDef) -> bool:
    for base in node.bases:
        last = (dotted_name(base) or ("",))[-1]
        if last in _SLOTS_EXEMPT_BASES or last.endswith(("Error", "Exception")):
            return True
    return False


@rule("slots-discipline")
def _check_slots_discipline(ctx: VetContext) -> Iterable[Finding]:
    for scan in ctx.scans:
        if not _slots_scope(scan.module.parts):
            continue
        for node in scan.nodes:
            if isinstance(node, ast.ClassDef) and \
                    not _slots_exempt_class(node) and not _declares_slots(node):
                yield scan.path, node.lineno, (
                    f"class {node.name} on an engine-core path declares no "
                    f"__slots__ (use a class-body literal or "
                    f"@dataclass(slots=True)); hot-loop objects must not "
                    f"carry an instance __dict__")


# -- retry-discipline ----------------------------------------------------------


def _scales_and_sends(loop: ast.While) -> bool:
    """Does *loop* send *and* scale its own delay (``*=`` or ``**``)?"""
    return any(isinstance(node, ast.Call)
               and isinstance(node.func, ast.Attribute)
               and node.func.attr in SEND_ATTRS for node in ast.walk(loop)) \
        and any((isinstance(node, ast.AugAssign)
                 and isinstance(node.op, (ast.Mult, ast.Pow)))
                or (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow))
                for node in ast.walk(loop))


@rule("retry-discipline")
def _check_retry_discipline(ctx: VetContext) -> Iterable[Finding]:
    # (a) every requested type declares a timeout class.  Skipped when no
    #     scanned module defines the table (partial scans of modules that
    #     merely *use* the transport would otherwise all fail).
    if "TIMEOUT_CLASSES" in ctx.graph.tables:
        for name, node in ctx.graph.nodes.items():
            for site in () if node.has_timeout_class else node.send_sites:
                if site.via == "request":
                    yield site.module.path, site.line, (
                        f"MsgType.{name} is awaited via .request() but "
                        f"declares no entry in TIMEOUT_CLASSES — the "
                        f"retransmission loop has no reply deadline for it")
    # (b) no hand-rolled exponential backoff: a while-loop that scales
    #     its own delay, in a function that does not delegate the
    #     arithmetic to the shared backoff_delay helper
    for scan in ctx.scans:
        loops = {id(node) for node in scan.nodes
                 if isinstance(node, ast.While) and _scales_and_sends(node)}
        for fn in scan.nodes if loops else ():
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            body = list(ast.walk(fn))
            if any(isinstance(node, ast.Call) and call_name(node) == "backoff_delay"
                   for node in body):
                continue
            for loop in body:
                if id(loop) in loops:
                    yield scan.path, loop.lineno, (
                        "retransmit loop scales its own delay: use "
                        "net.retry.backoff_delay (capped exponential, "
                        "bounded attempts) instead of hand-rolled backoff")
