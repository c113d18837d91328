"""The six per-file lint rules ported onto the DexVet framework.

The rules run off the shared :class:`~repro.vet.msggraph.ModuleScan`,
so one parse feeds both these and the whole-program rules.

Rule rationale lives with each check below; the short version:

* ``unhandled-message-type`` — an enum member nothing handles is dead
  protocol surface.
* ``directory-encapsulation`` — only ``core/directory.py`` may touch the
  directory backends' storage internals.
* ``sim-nondeterminism`` — no wall clocks, OS entropy, or unseeded RNG
  inside simulation code; determinism per seed is load-bearing.
* ``span-discipline`` — spans close via ``with`` (the tracer's explicit
  open/close pair is the fabric's alone); trace ids cross processes only
  through the Message header fields.
* ``slots-discipline`` — engine-core classes declare ``__slots__``.
* ``retry-discipline`` — request-class messages declare a timeout class;
  nobody hand-rolls exponential backoff.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List, Sequence, Set

from repro.vet.callgraph import dotted_name
from repro.vet.msggraph import ModuleScan, msgtype_member
from repro.vet.rules import rule, Violation, VetContext

#: the six ported rule names, in the order the old pass reported them
LEGACY_RULES = (
    "unhandled-message-type",
    "directory-encapsulation",
    "sim-nondeterminism",
    "span-discipline",
    "slots-discipline",
    "retry-discipline",
)

#: attribute names that are directory storage internals
_DIRECTORY_INTERNALS = frozenset({"directory_shard", "shard_map", "_lru"})
#: the one module allowed to touch them
_DIRECTORY_MODULE = "directory.py"

#: fully dotted call suffixes that read wall clocks or OS entropy
_WALL_CLOCK_CALLS = frozenset({
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("os", "urandom"),
    ("uuid", "uuid4"),
})

#: numpy.random constructors that are deterministic when given a seed
_SEEDED_RNG_CTORS = frozenset({"default_rng", "RandomState", "SeedSequence",
                               "Generator", "PCG64", "Philox"})

#: modules exempt from the nondeterminism rule when linting the repo:
#: offline tooling that never runs inside a simulation
_NONDETERMINISM_EXEMPT_PARTS = ("bench", "tools", "check", "vet")

#: packages exempt from the span-discipline rule when linting the repo:
#: the tracing machinery itself builds spans and serializes their ids
_SPAN_EXEMPT_PARTS = ("obs",)

#: the tracer's explicit pair: only a message in flight (engine callbacks,
#: not a generator) has no block to put a ``with`` around
_EXPLICIT_SPAN_CALLS = frozenset({"open_span", "close_span"})

#: dict keys that would smuggle trace context outside the Message fields
_TRACE_ID_KEYS = frozenset({"trace_id", "parent_span", "span_id"})


def nondeterminism_exempt(path: Path) -> bool:
    return any(part in _NONDETERMINISM_EXEMPT_PARTS for part in path.parts)


def span_exempt(path: Path) -> bool:
    return any(part in _SPAN_EXEMPT_PARTS for part in path.parts)


def _carries_flights(path: Path) -> bool:
    return path.name == "fabric.py" and "net" in path.parts[:-1]


@rule("unhandled-message-type")
def check_unhandled_message_types(ctx: VetContext) -> List[Violation]:
    scans = ctx.scans
    violations: List[Violation] = []
    handled: Set[str] = set()
    for scan in scans:
        handled |= scan.handled_members
        if not scan.defines_msgtype:
            # dict keys in the defining module are metadata tables
            # (CONTROL_SIZES), not dispatch wiring
            handled |= scan.dict_key_members
    for scan in scans:
        for member, line in sorted(scan.msgtype_members.items(),
                                   key=lambda kv: kv[1]):
            if member not in handled:
                violations.append(Violation(
                    rule="unhandled-message-type",
                    path=str(scan.path),
                    line=line,
                    message=(
                        f"MsgType.{member} has no registered handler, "
                        f"routes-dict entry, or make_reply producer — "
                        f"dead protocol surface"
                    ),
                ))
    return violations


@rule("directory-encapsulation")
def check_directory_encapsulation(ctx: VetContext) -> List[Violation]:
    violations: List[Violation] = []
    for scan in ctx.scans:
        if scan.path.name == _DIRECTORY_MODULE:
            continue
        for node in ast.walk(scan.tree):
            if isinstance(node, ast.Attribute) and \
                    node.attr in _DIRECTORY_INTERNALS:
                violations.append(Violation(
                    rule="directory-encapsulation",
                    path=str(scan.path),
                    line=node.lineno,
                    message=(
                        f"access to directory internal '.{node.attr}' "
                        f"outside core/directory.py; go through the "
                        f"CoherenceDirectory interface"
                    ),
                ))
    return violations


def _scan_nondeterminism(scan: ModuleScan) -> List[Violation]:
    violations: List[Violation] = []
    for node in ast.walk(scan.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    violations.append(Violation(
                        rule="sim-nondeterminism",
                        path=str(scan.path), line=node.lineno,
                        message="import of the unseeded 'random' module "
                                "inside sim code",
                    ))
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random":
                violations.append(Violation(
                    rule="sim-nondeterminism",
                    path=str(scan.path), line=node.lineno,
                    message="import from the unseeded 'random' module "
                            "inside sim code",
                ))
        elif isinstance(node, ast.Call):
            dotted = dotted_name(node.func)
            if len(dotted) < 2:
                continue
            suffix = dotted[-2:]
            if suffix in _WALL_CLOCK_CALLS:
                violations.append(Violation(
                    rule="sim-nondeterminism",
                    path=str(scan.path), line=node.lineno,
                    message=f"wall-clock/entropy call "
                            f"'{'.'.join(dotted)}()' inside sim code; use "
                            f"engine time",
                ))
            elif "random" in dotted[:-1]:
                # something.random.<fn>(...): numpy-style RNG access
                fn = dotted[-1]
                if fn not in _SEEDED_RNG_CTORS:
                    violations.append(Violation(
                        rule="sim-nondeterminism",
                        path=str(scan.path), line=node.lineno,
                        message=f"'{'.'.join(dotted)}()' draws from global "
                                f"RNG state; use a seeded default_rng",
                    ))
                elif not node.args and not node.keywords:
                    violations.append(Violation(
                        rule="sim-nondeterminism",
                        path=str(scan.path), line=node.lineno,
                        message=f"'{'.'.join(dotted)}()' without a seed is "
                                f"nondeterministic",
                    ))
            elif dotted[0] == "random":
                violations.append(Violation(
                    rule="sim-nondeterminism",
                    path=str(scan.path), line=node.lineno,
                    message=f"'{'.'.join(dotted)}()' uses the unseeded "
                            f"'random' module inside sim code",
                ))
    return violations


@rule("sim-nondeterminism")
def check_sim_nondeterminism(ctx: VetContext) -> List[Violation]:
    violations: List[Violation] = []
    for scan in ctx.scans:
        if ctx.repo_mode and nondeterminism_exempt(scan.path):
            continue
        violations.extend(_scan_nondeterminism(scan))
    return violations


def _scan_spans(scan: ModuleScan) -> List[Violation]:
    violations: List[Violation] = []
    # calls that appear as a with-statement item are the sanctioned form
    with_calls: Set[int] = set()
    for node in ast.walk(scan.tree):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if isinstance(item.context_expr, ast.Call):
                    with_calls.add(id(item.context_expr))
    for node in ast.walk(scan.tree):
        if isinstance(node, ast.Call):
            func = node.func
            attr = func.attr if isinstance(func, ast.Attribute) else None
            opens_span = attr == "span" or (
                isinstance(func, ast.Name) and func.id == "maybe_span")
            if opens_span and id(node) not in with_calls:
                why = ("outside a with statement: spans must be closed by "
                       "their context manager or end_us never stamps")
            elif attr in _EXPLICIT_SPAN_CALLS and not _carries_flights(scan.path):
                why = ("outside net/fabric.py: only a message in flight "
                       "opens and closes spans by hand; use 'with "
                       "tracer.span(...)'")
            else:
                continue
            shown = "maybe_span" if attr is None else \
                f"{'.'.join(dotted_name(func)) or '<expr>.' + attr}"
            violations.append(Violation(
                rule="span-discipline",
                path=str(scan.path), line=node.lineno,
                message=f"'{shown}(...)' {why}",
            ))
        elif isinstance(node, ast.Dict):
            for key in node.keys:
                if (
                    isinstance(key, ast.Constant)
                    and key.value in _TRACE_ID_KEYS
                ):
                    violations.append(Violation(
                        rule="span-discipline",
                        path=str(scan.path), line=key.lineno,
                        message=f"dict key {key.value!r}: trace ids cross "
                                f"processes only via the Message "
                                f"trace_id/parent_span fields",
                    ))
    return violations


@rule("span-discipline")
def check_span_discipline(ctx: VetContext) -> List[Violation]:
    violations: List[Violation] = []
    for scan in ctx.scans:
        if ctx.repo_mode and span_exempt(scan.path):
            continue
        violations.extend(_scan_spans(scan))
    return violations


#: base-class names that exempt a class from the slots rule
_SLOTS_EXEMPT_BASES = frozenset({
    "Enum", "IntEnum", "StrEnum", "Flag", "IntFlag",
    "BaseException", "Exception", "Warning",
})


def _slots_scope(path: Path) -> bool:
    """Is *path* on an engine-core path the slots rule covers?"""
    parents = path.parts[:-1]
    if "sim" in parents:
        return True
    return path.name == "messages.py" and "net" in parents


def _declares_slots(node: ast.ClassDef) -> bool:
    for stmt in node.body:
        if isinstance(stmt, ast.Assign):
            if any(isinstance(t, ast.Name) and t.id == "__slots__"
                   for t in stmt.targets):
                return True
        elif isinstance(stmt, ast.AnnAssign):
            if isinstance(stmt.target, ast.Name) and \
                    stmt.target.id == "__slots__":
                return True
    for deco in node.decorator_list:
        if not isinstance(deco, ast.Call):
            continue
        name = dotted_name(deco.func)
        if name and name[-1] == "dataclass":
            for kw in deco.keywords:
                if (
                    kw.arg == "slots"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                ):
                    return True
    return False


def _slots_exempt_class(node: ast.ClassDef) -> bool:
    for base in node.bases:
        name = dotted_name(base)
        last = name[-1] if name else ""
        if last in _SLOTS_EXEMPT_BASES or last.endswith("Error") or \
                last.endswith("Exception"):
            return True
    return False


@rule("slots-discipline")
def check_slots_discipline(ctx: VetContext) -> List[Violation]:
    violations: List[Violation] = []
    for scan in ctx.scans:
        if not _slots_scope(scan.path):
            continue
        for node in ast.walk(scan.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if _slots_exempt_class(node):
                continue
            if not _declares_slots(node):
                violations.append(Violation(
                    rule="slots-discipline",
                    path=str(scan.path),
                    line=node.lineno,
                    message=(
                        f"class {node.name} on an engine-core path "
                        f"declares no __slots__ (use a class-body literal "
                        f"or @dataclass(slots=True)); hot-loop objects "
                        f"must not carry an instance __dict__"
                    ),
                ))
    return violations


#: attribute-call names that put a message on the wire
_SEND_CALL_ATTRS = frozenset({"send", "post", "request"})


def _scan_manual_backoff(scan: ModuleScan) -> List[Violation]:
    """A while-loop that sends *and* scales its own delay (``*=`` or
    ``**``) is a hand-rolled exponential retransmit loop — unless the
    function delegates the arithmetic to the shared ``backoff_delay``
    helper.  Constant-delay loops are fine."""
    violations: List[Violation] = []
    for fn in ast.walk(scan.tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        uses_helper = any(
            isinstance(node, ast.Call)
            and (
                (isinstance(node.func, ast.Name)
                 and node.func.id == "backoff_delay")
                or (isinstance(node.func, ast.Attribute)
                    and node.func.attr == "backoff_delay")
            )
            for node in ast.walk(fn)
        )
        if uses_helper:
            continue
        for loop in ast.walk(fn):
            if not isinstance(loop, ast.While):
                continue
            sends = any(
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _SEND_CALL_ATTRS
                for node in ast.walk(loop)
            )
            scales = any(
                (isinstance(node, ast.AugAssign)
                 and isinstance(node.op, (ast.Mult, ast.Pow)))
                or (isinstance(node, ast.BinOp)
                    and isinstance(node.op, ast.Pow))
                for node in ast.walk(loop)
            )
            if sends and scales:
                violations.append(Violation(
                    rule="retry-discipline",
                    path=str(scan.path),
                    line=loop.lineno,
                    message=(
                        "retransmit loop scales its own delay: use "
                        "net.retry.backoff_delay (capped exponential, "
                        "bounded attempts) instead of hand-rolled backoff"
                    ),
                ))
    return violations


@rule("retry-discipline")
def check_retry_discipline(ctx: VetContext) -> List[Violation]:
    scans = ctx.scans
    violations: List[Violation] = []
    # part one: every request-class MsgType declares a timeout class.
    # Skipped entirely when no scanned module defines the dict (partial
    # scans of modules that merely *use* the transport would otherwise
    # all fail).
    if any(scan.defines_timeout_classes for scan in scans):
        declared: Set[str] = set()
        for scan in scans:
            declared |= scan.timeout_class_members
        for scan in scans:
            for member, line in scan.requested_members:
                if member not in declared:
                    violations.append(Violation(
                        rule="retry-discipline",
                        path=str(scan.path),
                        line=line,
                        message=(
                            f"MsgType.{member} is awaited via .request() "
                            f"but declares no entry in TIMEOUT_CLASSES — "
                            f"the retransmission loop has no reply "
                            f"deadline for it"
                        ),
                    ))
    # part two: no hand-rolled exponential backoff
    for scan in scans:
        violations.extend(_scan_manual_backoff(scan))
    return violations
