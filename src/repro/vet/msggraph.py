"""Message-graph extraction: the protocol's wiring, recovered from source.

For every ``MsgType`` member the scan recovers:

* **send sites** — every place a message of that type enters the fabric:
  ``net.send(...)`` / ``net.post(...)`` / ``net.request(...)`` calls whose
  argument is (or is a local binding of) a ``Message(MsgType.X, ...)`` /
  ``msg.make_reply(MsgType.X, ...)`` construction;
* **handler registrations** — both literal ``router.register(MsgType.X,
  fn)`` calls and routes-dict wiring (``{MsgType.X: lambda p:
  p.svc.handler, ...}``), resolved to function definitions through the
  call graph;
* **reply production** — which functions build a reply of that type with
  ``make_reply``; combined with call-graph reachability from each
  handler this yields the request ↔ reply pairing (``PAGE_REQUEST`` is
  answered by ``PAGE_GRANT`` / ``PAGE_RETRY`` / ``PAGE_REDIRECT``, ...);
* membership in the ``TIMEOUT_CLASSES`` retry table and the
  ``CONTROL_SIZES`` wire-size table, and which of the two are in scope.

The graph is the one place these facts live: every rule that asks about
a message type reads its :class:`MsgNode`.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.vet.callgraph import CallGraph, FunctionInfo
from repro.vet.loader import ModuleInfo

#: attribute-call names that put a message on the wire
SEND_ATTRS = frozenset({"send", "post", "request"})

def msgtype_member(node: ast.AST) -> Optional[str]:
    """The member name when *node* is a ``MsgType.X`` reference."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "MsgType"
    ):
        return node.attr
    return None


def message_ctor_member(node: ast.AST) -> Optional[Tuple[str, bool]]:
    """``(member, is_reply)`` when *node* constructs a message of a
    literal type: ``Message(MsgType.X, ...)`` or
    ``msg.make_reply(MsgType.X, ...)``."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    first: Optional[ast.expr] = None
    if node.args:
        first = node.args[0]
    else:
        for kw in node.keywords:
            if kw.arg == "msg_type":
                first = kw.value
                break
    if first is None:
        return None
    member = msgtype_member(first)
    if member is None:
        return None
    if isinstance(func, ast.Name) and func.id == "Message":
        return member, False
    if isinstance(func, ast.Attribute) and func.attr == "make_reply":
        return member, True
    return None


class SendSite:
    """One place a typed message enters the fabric."""

    __slots__ = ("member", "via", "is_reply", "module", "line", "func")

    def __init__(
        self,
        member: str,
        via: str,
        is_reply: bool,
        module: ModuleInfo,
        line: int,
        func: Optional[str],
    ):
        self.member = member
        self.via = via              # "send" | "post" | "request"
        self.is_reply = is_reply    # built with make_reply
        self.module = module
        self.line = line
        self.func = func            # enclosing function qualname, if any

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SendSite {self.member} via {self.via} @{self.module.rel}:{self.line}>"


class HandlerReg:
    """One handler wiring for a message type."""

    __slots__ = ("member", "handler_name", "module", "line", "via")

    def __init__(
        self, member: str, handler_name: str, module: ModuleInfo, line: int, via: str
    ):
        self.member = member
        self.handler_name = handler_name
        self.module = module
        self.line = line
        self.via = via              # "register" | "routes-dict"


class ModuleScan:
    """Everything one parsed module contributes to the analysis."""

    def __init__(self, module: ModuleInfo, callgraph: CallGraph):
        self.module = module
        self.path = module.path
        self.tree = module.tree
        #: the module's one walk, shared by every per-file rule
        self.nodes: List[ast.AST] = list(ast.walk(self.tree))
        #: MsgType members defined here: name -> line
        self.msgtype_members: Dict[str, int] = {}
        #: ``TIMEOUT_CLASSES = {...}`` / ``CONTROL_SIZES = {...}`` defined
        #: here: table -> member -> the value when it is a string literal
        self.tables: Dict[str, Dict[str, Optional[str]]] = {}
        #: typed send sites (send/post/request of a constructed message)
        self.send_sites: List[SendSite] = []
        #: handler registrations (literal + routes-dict)
        self.handler_regs: List[HandlerReg] = []
        #: function qualname -> set of reply members it builds
        self.reply_producers: Dict[str, Set[str]] = {}
        self._collect()
        for fn in callgraph.by_module[module]:
            self._scan_function(fn)

    # -- module-level collection ----------------------------------------

    def _collect(self) -> None:
        for node in self.nodes:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                target = node.target if isinstance(node, ast.AnnAssign) else (
                    node.targets[0] if len(node.targets) == 1 else None
                )
                if (
                    isinstance(target, ast.Name)
                    and isinstance(node.value, ast.Dict)
                    and target.id in ("TIMEOUT_CLASSES", "CONTROL_SIZES")
                ):
                    table = self.tables.setdefault(target.id, {})
                    for key, value in zip(node.value.keys, node.value.values):
                        member = msgtype_member(key) if key is not None else None
                        if member is not None:
                            table[member] = value.value if (
                                isinstance(value, ast.Constant)
                                and isinstance(value.value, str)
                            ) else None
            if isinstance(node, ast.ClassDef) and node.name == "MsgType":
                for stmt in node.body:
                    if isinstance(stmt, ast.Assign):
                        for target in stmt.targets:
                            if isinstance(target, ast.Name):
                                self.msgtype_members[target.id] = stmt.lineno
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "register"
                    and len(node.args) >= 2
                ):
                    member = msgtype_member(node.args[0])
                    handler = self._handler_name(node.args[1])
                    if member is not None and handler is not None:
                        self.handler_regs.append(HandlerReg(
                            member, handler, self.module,
                            node.lineno, "register",
                        ))
            elif isinstance(node, ast.Dict):
                for key, value in zip(node.keys, node.values):
                    member = msgtype_member(key) if key is not None else None
                    handler = self._handler_name(value)
                    if member is not None and handler is not None:
                        self.handler_regs.append(HandlerReg(
                            member, handler, self.module,
                            key.lineno, "routes-dict",
                        ))

    @staticmethod
    def _handler_name(node: ast.AST) -> Optional[str]:
        """The bare handler name wired by a register arg or routes-dict
        value: a function reference, attribute path, or a dispatch
        lambda (``lambda p: p.protocol.handle_x``)."""
        if isinstance(node, ast.Lambda):
            node = node.body
        if isinstance(node, ast.Attribute):
            return node.attr
        if isinstance(node, ast.Name):
            return node.id
        return None

    # -- per-function collection ----------------------------------------

    def _scan_function(self, fn: FunctionInfo) -> None:
        qualname = fn.qualname
        # own body only: nested defs get their own _scan_function visit,
        # so walking into them here would double-count their send sites
        own = fn.own
        # function-local `msg = Message(MsgType.X, ...)` bindings
        bindings: Dict[str, Tuple[str, bool]] = {}
        for node in own:
            if isinstance(node, ast.Assign):
                ctor = message_ctor_member(node.value)
                if ctor is not None:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            bindings[target.id] = ctor
        for node in own:
            if not isinstance(node, ast.Call):
                continue
            ctor = message_ctor_member(node)
            if ctor is not None and ctor[1]:
                self.reply_producers.setdefault(qualname, set()).add(ctor[0])
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr in SEND_ATTRS
                and node.args
            ):
                continue
            arg = node.args[0]
            resolved = message_ctor_member(arg)
            if resolved is None and isinstance(arg, ast.Name):
                resolved = bindings.get(arg.id)
            if resolved is None:
                continue  # not a typed message send (e.g. generator.send)
            member, is_reply = resolved
            self.send_sites.append(SendSite(
                member, func.attr, is_reply, self.module, node.lineno, qualname,
            ))


class MsgNode:
    """Everything the graph knows about one message type."""

    __slots__ = (
        "name", "defined_in", "defined_line", "send_sites", "handler_regs",
        "handler_fns", "replies", "reply_producer_fns", "timeout_class",
        "has_timeout_class", "has_control_size",
    )

    def __init__(self, name: str, defined_in: str, defined_line: int):
        self.name = name
        self.defined_in = defined_in
        self.defined_line = defined_line
        self.send_sites: List[SendSite] = []
        self.handler_regs: List[HandlerReg] = []
        self.handler_fns: List[FunctionInfo] = []
        #: reply members produced by code reachable from this type's handlers
        self.replies: Set[str] = set()
        #: function qualnames that build this member as a make_reply
        self.reply_producer_fns: Set[str] = set()
        #: the TIMEOUT_CLASSES value, when it is a string literal
        self.timeout_class: Optional[str] = None
        self.has_timeout_class = False
        self.has_control_size = False

    @property
    def is_requested(self) -> bool:
        return any(s.via == "request" and not s.is_reply for s in self.send_sites)

    @property
    def is_reply_type(self) -> bool:
        return bool(self.reply_producer_fns)

    @property
    def one_way_sends(self) -> List[SendSite]:
        return [s for s in self.send_sites if not s.is_reply]


class MessageGraph:
    """The whole-program send → handler → reply graph."""

    def __init__(self, scans: List[ModuleScan], callgraph: CallGraph):
        self.nodes: Dict[str, MsgNode] = {}
        #: the tables (TIMEOUT_CLASSES, CONTROL_SIZES) some scanned module defines
        self.tables: Set[str] = set()
        self.scans = scans
        for scan in scans:
            for member, line in scan.msgtype_members.items():
                self.nodes[member] = MsgNode(member, scan.module.rel, line)
        known = self.nodes
        for scan in scans:
            for site in scan.send_sites:
                if site.member in known:
                    known[site.member].send_sites.append(site)
            for reg in scan.handler_regs:
                if reg.member in known:
                    known[reg.member].handler_regs.append(reg)
            for qualname, members in scan.reply_producers.items():
                for member in members:
                    if member in known:
                        known[member].reply_producer_fns.add(qualname)
            for table, entries in scan.tables.items():
                self.tables.add(table)
                for member, value in entries.items():
                    node = known.get(member)
                    if node is None:
                        continue
                    if table == "CONTROL_SIZES":
                        node.has_control_size = True
                    else:
                        node.has_timeout_class = True
                        if value is not None:
                            node.timeout_class = value
        # resolve handlers and compute the reply closure per request type.
        # The transport layer is opaque to the traversal: the fabric
        # *delivers* messages (and its dynamic dispatch would make every
        # handler reachable from every other), it does not produce
        # protocol replies — its own make_reply (the duplicate-
        # suppression REQUEST_ACK) is transport-internal.
        producers_by_qualname: Dict[str, Set[str]] = {}
        for scan in scans:
            for qualname, members in scan.reply_producers.items():
                producers_by_qualname.setdefault(qualname, set()).update(members)

        def in_net(fn: FunctionInfo) -> bool:
            return "net" in fn.module.parts

        for node in self.nodes.values():
            seen: Set[str] = set()
            for reg in node.handler_regs:
                for fn in callgraph.resolve(reg.handler_name):
                    if fn.qualname in seen:
                        continue
                    seen.add(fn.qualname)
                    node.handler_fns.append(fn)
                    for reached in callgraph.reachable(fn, prune=in_net):
                        node.replies.update(
                            producers_by_qualname.get(reached.qualname, ())
                        )

    # -- exports ---------------------------------------------------------

    def to_dict(self) -> Dict[str, Dict[str, object]]:
        """A stable, diff-friendly summary (the golden-snapshot format).

        Deliberately line-number-free so the snapshot only breaks when
        the *wiring* changes, not when code above it moves."""
        out: Dict[str, Dict[str, object]] = {}
        for name in sorted(self.nodes):
            node = self.nodes[name]
            out[name] = {
                "defined_in": node.defined_in,
                "send_sites": sorted({
                    f"{s.via} {s.func or s.module.rel}"
                    + (" (reply)" if s.is_reply else "")
                    for s in node.send_sites
                }),
                "handlers": sorted(f.qualname for f in node.handler_fns),
                "replies": sorted(node.replies),
                "requested": node.is_requested,
                "reply_type": node.is_reply_type,
                "timeout_class": node.timeout_class,
                "sized": node.has_control_size,
            }
        return out

    def to_dot(self) -> str:
        """Graphviz DOT of the send → handler → reply wiring."""
        lines = [
            "digraph dexvet {",
            "  rankdir=LR;",
            '  node [fontname="Helvetica"];',
        ]
        msg_nodes: Set[str] = set()
        fn_nodes: Set[str] = set()
        edges: Set[str] = set()

        def msg(name: str) -> str:
            ident = f"msg_{name}"
            if name not in msg_nodes:
                msg_nodes.add(name)
                node = self.nodes[name]
                shape = "box" if not node.is_reply_type else "box,style=rounded"
                lines.append(
                    f'  {ident} [label="{name}" shape={shape.split(",")[0]}'
                    + (
                        ' style="rounded,filled" fillcolor="#eef4ff"'
                        if node.is_reply_type else ' style=filled fillcolor="#fff7e6"'
                    )
                    + "];"
                )
            return ident

        def fn(qualname: str) -> str:
            ident = "fn_" + "".join(
                c if c.isalnum() else "_" for c in qualname
            )
            if qualname not in fn_nodes:
                fn_nodes.add(qualname)
                label = qualname.split("::")[-1]
                lines.append(f'  {ident} [label="{label}" shape=ellipse];')
            return ident

        for name in sorted(self.nodes):
            msg(name)  # every type gets a node, even if unwired
        for name in sorted(self.nodes):
            node = self.nodes[name]
            for site in node.send_sites:
                if site.func and not site.is_reply:
                    edge = f'  {fn(site.func)} -> {msg(name)} [label="{site.via}"];'
                    if edge not in edges:
                        edges.add(edge)
                        lines.append(edge)
            for handler in node.handler_fns:
                edge = f"  {msg(name)} -> {fn(handler.qualname)};"
                if edge not in edges:
                    edges.add(edge)
                    lines.append(edge)
                for reply in sorted(node.replies):
                    if reply not in self.nodes:
                        continue
                    edge = (
                        f"  {fn(handler.qualname)} -> {msg(reply)}"
                        ' [style=dashed label="reply"];'
                    )
                    if edge not in edges:
                        edges.add(edge)
                        lines.append(edge)
        lines.append("}")
        return "\n".join(lines) + "\n"
