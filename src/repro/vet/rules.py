"""DexVet's rules: one registry, every rule a function of one context.

A rule maps the shared :class:`VetContext` (parsed modules and their
scans, call graph, effect table, message graph) to a list of
:class:`Violation`; ``@rule(name)`` registers it and the CLI selects
from :data:`REGISTRY`.  A finding is fixed, never suppressed.

Message-type facts come from the message graph only:

* ``handler-totality`` — every message type that is *sent* somewhere
  must have a handler *registered* somewhere, or dispatch raises on
  delivery.
* ``orphan-message-type`` — a member that is never sent, posted,
  requested, or produced as a reply is dead protocol surface from the
  send side.
* ``reply-pairing`` — a type awaited via ``.request(...)`` must have a
  reply (``make_reply``) reachable from its handlers, or the requester
  waits forever.
* ``chaos-reachability`` — every message type needs a ``CONTROL_SIZES``
  entry (or fault injection cannot size/target its frames), and
  fabric-internal delivery helpers (``_send_impl``, or constructing a
  ``_Flight``) may not be used from outside the fabric, or the chaos
  hooks are bypassed.
* ``retry-discipline`` — a type awaited via ``.request(...)`` declares
  a ``TIMEOUT_CLASSES`` entry, and nobody hand-rolls exponential
  backoff.

The rest read the call graph, the effect table or one file at a time:

* ``dropped-wait`` — effect inference: a call to a blocking (generator)
  function whose result is discarded builds the generator and never
  drives it, so the simulated wait silently does not happen.
* ``inject-coverage`` — cross-node sends must pass through a fabric
  frontend that stamps trace context (``Tracer.inject``); direct
  ``.dispatch(...)`` outside the ``net`` layer bypasses it.
* ``yield-discipline``, ``lens-sink-discipline``, ``metric-discipline``
  and ``serve-discipline`` — see each rule's docstring.
* ``directory-encapsulation`` — only ``core/directory.py`` may touch the
  directory backends' storage internals.
* ``sim-nondeterminism`` — no wall clocks, OS entropy, or unseeded RNG
  inside simulation code; determinism per seed is load-bearing.
* ``gc-discipline`` — the program never runs or switches Python's cyclic
  collector: a finished run frees itself by reference counting, and the
  collector's state belongs to the host.
* ``span-discipline`` — spans open in a ``with`` (``engine.span`` is the
  seam, and the tracer's explicit open/close pair is the fabric's alone);
  trace ids cross processes only through the Message header fields.
* ``slots-discipline`` — engine-core classes declare ``__slots__``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set

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


class VetContext:
    """Everything the rules share: one parse, one graph, one effect table.
    Read-only once built, so a rule's findings are kept with it."""

    __slots__ = (
        "modules", "failures", "scans", "callgraph", "effects",
        "graph", "repo_mode", "findings",
    )

    def __init__(
        self,
        modules: List[ModuleInfo],
        failures: List[ParseFailure],
        scans: List[ModuleScan],
        callgraph: CallGraph,
        effects: Dict[FunctionInfo, str],
        graph: MessageGraph,
        repo_mode: bool,
    ):
        self.modules = modules
        self.failures = failures
        self.scans = scans
        self.callgraph = callgraph
        self.effects = effects
        self.graph = graph
        self.repo_mode = repo_mode
        #: rule name -> its violations, filled by :func:`run_rules`
        self.findings: Dict[str, List[Violation]] = {}


RuleFn = Callable[[VetContext], List[Violation]]

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
            ctx.findings[name] = REGISTRY[name](ctx)
        violations.extend(ctx.findings[name])
    violations.sort(key=lambda v: (v.path, v.line, v.rule))
    return violations


# ---------------------------------------------------------------------------
# whole-program rules


@rule("handler-totality")
def _check_handler_totality(ctx: VetContext) -> List[Violation]:
    violations: List[Violation] = []
    for name in sorted(ctx.graph.nodes):
        node = ctx.graph.nodes[name]
        sends = node.one_way_sends
        if sends and not node.handler_regs:
            site = min(sends, key=lambda s: (s.module.rel, s.line))
            violations.append(Violation(
                rule="handler-totality",
                path=str(site.module.path),
                line=site.line,
                message=(
                    f"MsgType.{name} is sent via .{site.via}() but no "
                    f"handler is registered on any Router — delivery "
                    f"raises at dispatch"
                ),
            ))
    return violations


@rule("orphan-message-type")
def _check_orphan_message_types(ctx: VetContext) -> List[Violation]:
    violations: List[Violation] = []
    for name in sorted(ctx.graph.nodes):
        node = ctx.graph.nodes[name]
        if not node.send_sites and not node.is_reply_type:
            violations.append(Violation(
                rule="orphan-message-type",
                path=_defining_path(ctx, node.defined_in),
                line=node.defined_line,
                message=(
                    f"MsgType.{name} is never sent, posted, requested, or "
                    f"produced as a reply — dead protocol surface on the "
                    f"send side (wire it or delete it)"
                ),
            ))
    return violations


def _defining_path(ctx: VetContext, rel: str) -> str:
    for module in ctx.modules:
        if module.rel == rel:
            return str(module.path)
    return rel


@rule("reply-pairing")
def _check_reply_pairing(ctx: VetContext) -> List[Violation]:
    violations: List[Violation] = []
    for name in sorted(ctx.graph.nodes):
        node = ctx.graph.nodes[name]
        if not node.is_requested:
            continue
        if node.replies:
            continue
        site = min(
            (s for s in node.send_sites if s.via == "request"),
            key=lambda s: (s.module.rel, s.line),
        )
        if not node.handler_fns:
            detail = "its registered handler resolves to no known function"
            if not node.handler_regs:
                detail = "it has no registered handler at all"
            message = (
                f"MsgType.{name} is awaited via .request() but {detail} — "
                f"the requester would wait forever"
            )
        else:
            message = (
                f"MsgType.{name} is awaited via .request() but no "
                f"make_reply is reachable from its handlers — the "
                f"requester would wait forever"
            )
        violations.append(Violation(
            rule="reply-pairing",
            path=str(site.module.path),
            line=site.line,
            message=message,
        ))
    return violations


#: call names sanctioned to *consume* a generator: the engine spawners
#: drive it as a process, carry() adopts it for tracing
SPAWNER_NAMES = frozenset({"process", "run_process", "all_of", "any_of", "carry"})


@rule("dropped-wait")
def _check_dropped_wait(ctx: VetContext) -> List[Violation]:
    violations: List[Violation] = []
    for fn in ctx.callgraph.functions:
        own = list(iter_own_nodes(fn.node))
        loads: Set[str] = {
            n.id for n in own
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        for node in own:
            call = getattr(node, "value", None)
            if not isinstance(call, ast.Call):
                continue
            name = call_name(call)
            if isinstance(node, ast.Expr):
                why = (
                    f"call to blocking '{name}(...)' as a bare "
                    f"statement: the generator is built and "
                    f"dropped, the simulated wait never happens — "
                    f"drive it with 'yield from' or spawn it via "
                    f"engine.process(...)"
                )
            elif isinstance(node, ast.Yield):
                why = (
                    f"'yield {name}(...)' hands the engine a "
                    f"generator, not a waitable — use "
                    f"'yield from {name}(...)'"
                )
            elif (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id not in loads
            ):
                why = (
                    f"result of blocking '{name}(...)' bound to "
                    f"'{node.targets[0].id}' but never driven — the "
                    f"simulated wait never happens"
                )
            else:
                continue
            if call_effect(ctx.callgraph, ctx.effects, call) is BLOCKING:
                violations.append(Violation(
                    "dropped-wait", str(fn.module.path), call.lineno, why))
    return violations


@rule("yield-discipline")
def _check_yield_discipline(ctx: VetContext) -> List[Violation]:
    """A generator process yields a delay in microseconds (a private sleep)
    or a waitable; a constant that is neither — nothing, None, a string, a
    negative number — fails the process at run time.  In ``src/`` (repo
    mode) a sleep has one spelling, so an inline one-argument
    ``yield x.timeout(d)`` is a finding too.  Names, attributes and
    arithmetic are taken on trust."""
    violations: List[Violation] = []
    not_waitable = ("generator processes may only yield a delay in "
                    "microseconds >= 0 or a waitable (Event/Timeout/Process)")
    for scan in ctx.scans:
        for node in ast.walk(scan.tree):
            if not isinstance(node, ast.Yield):
                continue
            value, why = node.value, not_waitable
            negated = isinstance(value, ast.UnaryOp) and isinstance(value.op, ast.USub)
            constant = value.operand if negated else value
            if value is None:
                shown = "bare yield"
            elif isinstance(constant, ast.Constant) and (
                negated or type(constant.value) not in (int, float)
            ):
                shown = f"yield {'-' * negated}{constant.value!r}"
            elif (
                ctx.repo_mode
                and isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr == "timeout"
                and len(value.args) == 1
                and not value.keywords
            ):
                shown = f"yield {'.'.join(dotted_name(value.func)) or '<expr>.timeout'}(...)"
                why = ("a private sleep spelled the old way — yield the delay "
                       "itself; a Timeout is for a deadline that is raced, "
                       "joined or cancelled")
            else:
                continue
            violations.append(Violation(
                "yield-discipline", str(scan.path), node.lineno, f"{shown}: {why}"))
    return violations


@rule("inject-coverage")
def _check_inject_coverage(ctx: VetContext) -> List[Violation]:
    violations: List[Violation] = []
    # (a) direct dispatch outside the net layer bypasses trace stamping
    #     and the chaos delivery hooks
    for scan in ctx.scans:
        if "net" in scan.module.parts:
            continue
        for node in ast.walk(scan.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "dispatch"
            ):
                violations.append(Violation(
                    rule="inject-coverage",
                    path=str(scan.path),
                    line=node.lineno,
                    message=(
                        "direct '.dispatch(...)' outside the net layer "
                        "bypasses Tracer.inject and the chaos delivery "
                        "hooks — go through send/post/request"
                    ),
                ))
    # (b) a fabric frontend (class with both send and _send_impl) must
    #     stamp trace context before handing off
    for scan in ctx.scans:
        for cls in ast.walk(scan.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            defs = {
                stmt.name: stmt for stmt in cls.body
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            if "send" not in defs or "_send_impl" not in defs:
                continue
            send_def = defs["send"]
            injects = any(
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "inject"
                for node in ast.walk(send_def)
            )
            if not injects:
                violations.append(Violation(
                    rule="inject-coverage",
                    path=str(scan.path),
                    line=send_def.lineno,
                    message=(
                        f"{cls.name}.send has no Tracer.inject call — "
                        f"cross-node messages leave without trace context "
                        f"and spans cannot be stitched across nodes"
                    ),
                ))
    return violations


#: fabric-internal delivery helpers (functions, and the class whose
#: construction launches a message): calling these directly skips the
#: chaos on_send/on_deliver interposition points
_FABRIC_INTERNALS = frozenset({"_send_impl", "_Flight"})


@rule("chaos-reachability")
def _check_chaos_reachability(ctx: VetContext) -> List[Violation]:
    violations: List[Violation] = []
    # (a) CONTROL_SIZES totality, when the table is in scope
    if "CONTROL_SIZES" in ctx.graph.tables:
        for name, node in ctx.graph.nodes.items():
            if not node.has_control_size:
                violations.append(Violation(
                    "chaos-reachability",
                    _defining_path(ctx, node.defined_in), node.defined_line,
                    f"MsgType.{name} has no CONTROL_SIZES entry — the "
                    f"fabric cannot size its frames and fault injection "
                    f"cannot target it",
                ))
    # (b) fabric internals called from outside their defining module
    defining: Dict[str, Set[str]] = {}
    for fn in ctx.callgraph.functions:
        if fn.name in _FABRIC_INTERNALS:
            defining.setdefault(fn.name, set()).add(fn.module.rel)
    for scan in ctx.scans:
        for node in scan.tree.body:  # module-level classes
            if isinstance(node, ast.ClassDef) and node.name in _FABRIC_INTERNALS:
                defining.setdefault(node.name, set()).add(scan.module.rel)
    if defining:
        for scan in ctx.scans:
            for node in ast.walk(scan.tree):
                if not isinstance(node, ast.Call):
                    continue
                # attribute tail or bare name: the flight can be imported
                # and constructed without going through an object
                name = call_name(node)
                if name not in defining or scan.module.rel in defining[name]:
                    continue
                violations.append(Violation(
                    rule="chaos-reachability",
                    path=str(scan.path),
                    line=node.lineno,
                    message=(
                        f"call to fabric-internal "
                        f"'{name}(...)' from outside the fabric "
                        f"bypasses the chaos on_send/on_deliver hooks — "
                        f"go through send/post/request"
                    ),
                ))
    return violations


_LIST_MUTATORS = frozenset({"append", "extend", "insert", "remove", "clear"})


def _probe_list(node: ast.AST) -> Optional[str]:
    """How *node* spells a probe list — ``x.hooks[...]``, a held
    ``x._on_<probe>`` or the registry's ``observers`` — else None."""
    if isinstance(node, ast.Subscript):
        node = node.value
        if isinstance(node, ast.Attribute) and node.attr == "hooks":
            return ".hooks[...]"
    elif isinstance(node, ast.Attribute) and (
        node.attr == "observers" or node.attr.startswith("_on_")
    ):
        return "." + node.attr
    return None


@rule("lens-sink-discipline")
def _check_lens_sink_discipline(ctx: VetContext) -> List[Violation]:
    """Observers and DexLens consumers: (a) whoever watches a run hooks in
    via add_hook only — the registry's add (sim/engine.py) is the one place
    a probe list grows, so a list a site holds is never stale or reordered;
    (b) critical-path phase labels come from the PathPhase enum
    (repro.obs.export), never re-spelled as string literals."""
    violations: List[Violation] = []
    for scan in ctx.scans:
        owns_lists = scan.module.rel.endswith("sim/engine.py")
        for node in ast.walk(scan.tree):
            if not isinstance(node, (ast.Call, ast.Assign, ast.AugAssign)):
                continue
            # (a) direct mutation of a probe list
            if not owns_lists:
                touched: Optional[str] = None
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _LIST_MUTATORS
                ):
                    touched = _probe_list(node.func.value)
                elif isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (
                        node.targets if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        spelled = _probe_list(target)
                        # (binding a held list, `self._on_x = hooks[...]`,
                        # is how a site starts)
                        if spelled and not spelled.startswith("._on_"):
                            touched = spelled
                if touched is not None:
                    violations.append(Violation(
                        rule="lens-sink-discipline",
                        path=str(scan.path),
                        line=node.lineno,
                        message=(
                            f"direct mutation of probe list '{touched}' — "
                            f"observers register via add_hook(...) only"
                        ),
                    ))
            # (b) phase labels spelled as string literals
            if isinstance(node, ast.Call):
                for kw in node.keywords:
                    if (
                        kw.arg == "phase"
                        and isinstance(kw.value, ast.Constant)
                        and isinstance(kw.value.value, str)
                    ):
                        violations.append(Violation(
                            rule="lens-sink-discipline",
                            path=str(scan.path),
                            line=kw.value.lineno,
                            message=(
                                f"critical-path phase label "
                                f"{kw.value.value!r} spelled as a string "
                                f"literal — use the shared PathPhase enum "
                                f"(repro.obs.export), e.g. "
                                f"PathPhase.QUEUE.value"
                            ),
                        ))
    return violations


# -- metric-discipline ---------------------------------------------------------

#: the typed metric constructors of repro.obs.metrics; outside the obs
#: layer they must be reached through MetricsRegistry registration
_METRIC_CTORS = frozenset({"Counter", "Histogram"})
_METRIC_MODULES = frozenset({"repro.obs.metrics", "repro.obs"})
#: attribute names that smell like a hand-rolled metrics store
_STAT_DICT_NAMES = ("stats", "metrics", "counters")


def _is_stat_dict_name(attr: str) -> bool:
    return attr in _STAT_DICT_NAMES or any(
        attr.endswith("_" + name) for name in _STAT_DICT_NAMES
    )


@rule("metric-discipline")
def _check_metric_discipline(ctx: VetContext) -> List[Violation]:
    """Metrics go through a MetricsRegistry, nowhere else.

    Outside the obs layer, (a) constructing ``Counter``/``Histogram``
    directly bypasses the registry's single registration,
    snapshot, and report path (and its kind-collision check); (b) a
    ``self.stats = {}``-style ad-hoc dict in place of registry families
    dodges the typed metrics entirely — per-key bounds, label handling,
    and the manifest/diff export all miss it.  Import-aware: only names
    actually imported from ``repro.obs.metrics`` count, so
    ``collections.Counter`` users stay clean."""
    violations: List[Violation] = []
    for scan in ctx.scans:
        if "obs" in scan.module.parts:
            continue  # the metrics layer itself wires its own internals
        metric_aliases: Dict[str, str] = {}
        module_aliases: Set[str] = set()
        for node in ast.walk(scan.tree):
            if isinstance(node, ast.ImportFrom):
                if node.module in _METRIC_MODULES:
                    for alias in node.names:
                        if alias.name in _METRIC_CTORS:
                            metric_aliases[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in _METRIC_MODULES and alias.asname:
                        module_aliases.add(alias.asname)
        for node in ast.walk(scan.tree):
            if isinstance(node, ast.Call):
                ctor: Optional[str] = None
                if (
                    isinstance(node.func, ast.Name)
                    and node.func.id in metric_aliases
                ):
                    ctor = metric_aliases[node.func.id]
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in _METRIC_CTORS
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in module_aliases
                ):
                    ctor = node.func.attr
                if ctor is not None:
                    violations.append(Violation(
                        rule="metric-discipline",
                        path=str(scan.path),
                        line=node.lineno,
                        message=(
                            f"direct {ctor}(...) construction outside the "
                            f"obs layer — register through a "
                            f"MetricsRegistry family "
                            f"(registry.{ctor.lower()}(name, ...)) so the "
                            f"metric shares the snapshot/report path"
                        ),
                    ))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                value = node.value
                if not isinstance(value, ast.Dict):
                    continue
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        and _is_stat_dict_name(target.attr)
                    ):
                        violations.append(Violation(
                            rule="metric-discipline",
                            path=str(scan.path),
                            line=node.lineno,
                            message=(
                                f"ad-hoc stat dict 'self.{target.attr}' — "
                                f"use MetricsRegistry counter/histogram "
                                f"families instead of a hand-rolled dict "
                                f"(typed, bounded, exported by manifests)"
                            ),
                        ))
    return violations


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


def _serve_queue_owner(rel: str) -> bool:
    return rel.endswith("serve/queueing.py")


def _serve_policy_layer(rel: str) -> bool:
    return rel.endswith("serve/policy.py") or _serve_queue_owner(rel)


@rule("serve-discipline")
def _check_serve_discipline(ctx: VetContext) -> List[Violation]:
    """DexServe admission control flows through the policy interface and
    its accounting through the metrics registry, nowhere else.

    (a) ``_backlog`` is ServeQueue-private: mutating it from outside
    ``serve/queueing.py`` bypasses the depth high-water mark and the
    one-waiter-per-admit wakeup; (b) ``commit_admit``/``evict_oldest``
    are the policy layer's entry points — a manager or worker calling
    them has made an admission decision outside any policy; (c) an
    :class:`AdmissionDecision` minted outside ``serve/policy.py`` is an
    unaccountable decision (import-aware, so unrelated classes of the
    same name stay clean); (d) tallying decisions on ad-hoc ``self``
    attributes instead of registry counters hides them from the SLO
    report and the scope time-series."""
    violations: List[Violation] = []

    def flag(scan: ModuleScan, line: int, message: str) -> None:
        violations.append(Violation(
            rule="serve-discipline", path=str(scan.path),
            line=line, message=message,
        ))

    for scan in ctx.scans:
        rel = scan.module.rel
        owns_queue = _serve_queue_owner(rel)
        is_policy = _serve_policy_layer(rel)
        mints_decisions = rel.endswith("serve/policy.py")
        serveish = "serve" in scan.module.parts
        decision_aliases: Set[str] = set()
        for node in ast.walk(scan.tree):
            if isinstance(node, ast.ImportFrom):
                mod = node.module or ""
                if (
                    mod in ("repro.serve", "repro.serve.policy", "policy")
                    or mod.endswith(".serve")
                    or mod.endswith("serve.policy")
                ):
                    serveish = True
                    for alias in node.names:
                        if alias.name == "AdmissionDecision":
                            decision_aliases.add(alias.asname or alias.name)
        for node in ast.walk(scan.tree):
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    not owns_queue
                    and isinstance(func, ast.Attribute)
                    and func.attr in _BACKLOG_MUTATORS
                    and isinstance(func.value, ast.Attribute)
                    and func.value.attr == "_backlog"
                ):
                    flag(scan, node.lineno, (
                        f"direct '._backlog.{func.attr}(...)' outside "
                        f"ServeQueue — admit through an AdmissionPolicy "
                        f"(queue.commit_admit is the policy-only surface)"
                    ))
                elif (
                    not is_policy
                    and isinstance(func, ast.Attribute)
                    and func.attr in _SERVE_QUEUE_API
                ):
                    flag(scan, node.lineno, (
                        f"'.{func.attr}(...)' called outside the admission "
                        f"policy layer — route the request through "
                        f"AdmissionPolicy.decide(...) instead"
                    ))
                elif (
                    not mints_decisions
                    and isinstance(func, ast.Name)
                    and func.id in decision_aliases
                ):
                    flag(scan, node.lineno, (
                        "AdmissionDecision minted outside serve/policy.py "
                        "— only policies may decide; return one from an "
                        "AdmissionPolicy.decide(...) override"
                    ))
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if (
                        not owns_queue
                        and isinstance(target, ast.Attribute)
                        and target.attr == "_backlog"
                    ):
                        flag(scan, node.lineno, (
                            "assignment to '._backlog' outside ServeQueue "
                            "— the backlog deque is queue-private"
                        ))
                    elif (
                        serveish
                        and isinstance(node, ast.AugAssign)
                        and isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        and target.attr in _SERVE_DECISION_COUNTS
                    ):
                        flag(scan, node.lineno, (
                            f"ad-hoc decision tally 'self.{target.attr}' — "
                            f"count admission outcomes through the "
                            f"MetricsRegistry serve_*_total counters so "
                            f"the SLO report and scope series see them"
                        ))
    return violations


# -- directory-encapsulation, sim-nondeterminism, span- and slots-discipline --

#: attribute names that are directory storage internals
_DIRECTORY_INTERNALS = frozenset({"directory_shard", "shard_map", "_lru"})


@rule("directory-encapsulation")
def _check_directory_encapsulation(ctx: VetContext) -> List[Violation]:
    violations: List[Violation] = []
    for scan in ctx.scans:
        if scan.path.name == "directory.py":
            continue
        for node in ast.walk(scan.tree):
            if isinstance(node, ast.Attribute) and \
                    node.attr in _DIRECTORY_INTERNALS:
                violations.append(Violation(
                    "directory-encapsulation", str(scan.path), node.lineno,
                    f"access to directory internal '.{node.attr}' outside "
                    f"core/directory.py; go through the CoherenceDirectory "
                    f"interface",
                ))
    return violations


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


def _nondeterminism_of(node: ast.AST) -> List[str]:
    """Why *node* makes a simulation nondeterministic: one reason per
    finding, none when it does not."""
    if isinstance(node, ast.Import):
        return ["import of the unseeded 'random' module inside sim code"
                for alias in node.names
                if alias.name == "random" or alias.name.startswith("random.")]
    if isinstance(node, ast.ImportFrom):
        return ["import from the unseeded 'random' module inside sim code"
                ] if node.module == "random" else []
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


@rule("sim-nondeterminism")
def _check_sim_nondeterminism(ctx: VetContext) -> List[Violation]:
    violations: List[Violation] = []
    for scan in ctx.scans:
        if ctx.repo_mode and any(part in _NONDETERMINISM_EXEMPT_PARTS
                                 for part in scan.path.parts):
            continue
        for node in ast.walk(scan.tree):
            for why in _nondeterminism_of(node):
                violations.append(Violation(
                    "sim-nondeterminism", str(scan.path), node.lineno, why))
    return violations


#: the ``gc`` calls that run or switch the cyclic collector
_GC_CALLS = frozenset({"collect", "disable", "enable", "freeze",
                       "set_threshold"})


@rule("gc-discipline")
def _check_gc_discipline(ctx: VetContext) -> List[Violation]:
    violations: List[Violation] = []
    for scan in ctx.scans:
        for node in ast.walk(scan.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "gc":
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Call) and \
                    dotted_name(node.func)[:-1] == ("gc",):
                names = [node.func.attr]
            else:
                continue
            violations.extend(Violation(
                "gc-discipline", str(scan.path), node.lineno,
                f"'gc.{name}' in the program: free a run by cutting its "
                f"cycles, and leave the collector to the host")
                for name in names if name in _GC_CALLS)
    return violations


#: the tracer's explicit pair: only a message in flight (engine callbacks,
#: not a generator) has no block to put a ``with`` around
_EXPLICIT_SPAN_CALLS = frozenset({"open_span", "close_span"})

#: dict keys that would smuggle trace context outside the Message fields
_TRACE_ID_KEYS = frozenset({"trace_id", "parent_span", "span_id"})


@rule("span-discipline")
def _check_span_discipline(ctx: VetContext) -> List[Violation]:
    violations: List[Violation] = []
    for scan in ctx.scans:
        # the tracing machinery itself builds spans and serializes ids
        if ctx.repo_mode and "obs" in scan.path.parts:
            continue
        carries_flights = (scan.path.name == "fabric.py"
                           and "net" in scan.path.parts[:-1])
        # calls that appear as a with-statement item are the sanctioned
        # form, and so is the seam's one pass-through (``Engine.span``
        # returning the tracer's span)
        with_calls: Set[int] = {
            id(item.context_expr) for node in ast.walk(scan.tree)
            if isinstance(node, (ast.With, ast.AsyncWith))
            for item in node.items
        } | {
            id(ret.value) for cls in ast.walk(scan.tree)
            if isinstance(cls, ast.ClassDef) and cls.name == "Engine"
            for fn in cls.body
            if isinstance(fn, ast.FunctionDef) and fn.name == "span"
            for ret in ast.walk(fn) if isinstance(ret, ast.Return)
        }
        for node in ast.walk(scan.tree):
            if isinstance(node, ast.Call):
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
                violations.append(Violation(
                    "span-discipline", str(scan.path), node.lineno,
                    f"'{shown}(...)' {why}"))
            elif isinstance(node, ast.Dict):
                for key in node.keys:
                    if isinstance(key, ast.Constant) and \
                            key.value in _TRACE_ID_KEYS:
                        violations.append(Violation(
                            "span-discipline", str(scan.path), key.lineno,
                            f"dict key {key.value!r}: trace ids cross "
                            f"processes only via the Message "
                            f"trace_id/parent_span fields"))
    return violations


#: base-class names that exempt a class from the slots rule
_SLOTS_EXEMPT_BASES = frozenset({
    "Enum", "IntEnum", "StrEnum", "Flag", "IntFlag",
    "BaseException", "Exception", "Warning",
})


def _slots_scope(path: Path) -> bool:
    """Is *path* on an engine-core path the slots rule covers?"""
    parents = path.parts[:-1]
    return "sim" in parents or (path.name == "messages.py" and "net" in parents)


def _declares_slots(node: ast.ClassDef) -> bool:
    for stmt in node.body:
        targets = stmt.targets if isinstance(stmt, ast.Assign) else \
            [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
        if any(isinstance(t, ast.Name) and t.id == "__slots__"
               for t in targets):
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
def _check_slots_discipline(ctx: VetContext) -> List[Violation]:
    violations: List[Violation] = []
    for scan in ctx.scans:
        if not _slots_scope(scan.path):
            continue
        for node in ast.walk(scan.tree):
            if isinstance(node, ast.ClassDef) and \
                    not _slots_exempt_class(node) and not _declares_slots(node):
                violations.append(Violation(
                    "slots-discipline", str(scan.path), node.lineno,
                    f"class {node.name} on an engine-core path declares no "
                    f"__slots__ (use a class-body literal or "
                    f"@dataclass(slots=True)); hot-loop objects must not "
                    f"carry an instance __dict__",
                ))
    return violations


# -- retry-discipline ----------------------------------------------------------


def _hand_rolled_backoff_loops(fn: ast.AST) -> List[ast.While]:
    """The while-loops of *fn* that send *and* scale their own delay
    (``*=`` or ``**``): hand-rolled exponential retransmit loops — unless
    the function delegates the arithmetic to the shared ``backoff_delay``
    helper.  Constant-delay loops are fine."""
    if any(isinstance(node, ast.Call) and call_name(node) == "backoff_delay"
           for node in ast.walk(fn)):
        return []
    return [
        loop for loop in ast.walk(fn)
        if isinstance(loop, ast.While)
        and any(isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in SEND_ATTRS for node in ast.walk(loop))
        and any((isinstance(node, ast.AugAssign)
                 and isinstance(node.op, (ast.Mult, ast.Pow)))
                or (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow))
                for node in ast.walk(loop))
    ]


@rule("retry-discipline")
def _check_retry_discipline(ctx: VetContext) -> List[Violation]:
    violations: List[Violation] = []
    # (a) every requested type declares a timeout class.  Skipped when no
    #     scanned module defines the table (partial scans of modules that
    #     merely *use* the transport would otherwise all fail).
    if "TIMEOUT_CLASSES" in ctx.graph.tables:
        for name, node in ctx.graph.nodes.items():
            if node.has_timeout_class:
                continue
            for site in node.send_sites:
                if site.via == "request":
                    violations.append(Violation(
                        "retry-discipline", str(site.module.path), site.line,
                        f"MsgType.{name} is awaited via .request() but "
                        f"declares no entry in TIMEOUT_CLASSES — the "
                        f"retransmission loop has no reply deadline for it",
                    ))
    # (b) no hand-rolled exponential backoff
    for scan in ctx.scans:
        for fn in ast.walk(scan.tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for loop in _hand_rolled_backoff_loops(fn):
                    violations.append(Violation(
                        "retry-discipline", str(scan.path), loop.lineno,
                        "retransmit loop scales its own delay: use "
                        "net.retry.backoff_delay (capped exponential, "
                        "bounded attempts) instead of hand-rolled backoff",
                    ))
    return violations
