"""Report rendering for DexVet: text, JSON, and DOT outputs."""

from __future__ import annotations

import json
from typing import List

from repro.vet.msggraph import MessageGraph
from repro.vet.rules import Violation


def render_text(violations: List[Violation], checked: int) -> str:
    """The CLI check report: one line per violation plus a summary."""
    summary = f"{len(violations)} violation(s)" if violations else "clean"
    lines = [v.format() for v in violations]
    lines.append(f"{summary} ({checked} file(s) checked)")
    return "\n".join(lines) + "\n"


def render_json(violations: List[Violation]) -> str:
    rows = [{"rule": v.rule, "path": v.path, "line": v.line,
             "message": v.message} for v in violations]
    return json.dumps({"violations": rows}, indent=2) + "\n"


def render_graph_text(graph: MessageGraph) -> str:
    """Human-oriented summary of the message graph, one block per type."""
    lines: List[str] = []
    for name in sorted(graph.nodes):
        node = graph.nodes[name]
        kind = "reply" if node.is_reply_type else (
            "request" if node.is_requested else "one-way"
        )
        lines.append(f"MsgType.{name}  [{kind}]")
        for site in sorted(node.send_sites,
                           key=lambda s: (s.module.rel, s.line)):
            tag = " (reply)" if site.is_reply else ""
            lines.append(
                f"  send    {site.via:<8} {site.module.rel}:{site.line}{tag}"
            )
        for fn in sorted(node.handler_fns, key=lambda f: f.qualname):
            lines.append(f"  handle  {fn.qualname}")
        if node.replies:
            lines.append(f"  replies {', '.join(sorted(node.replies))}")
        if not node.send_sites and not node.handler_fns:
            lines.append("  (unwired)")
    return "\n".join(lines) + "\n"


def render_graph_json(graph: MessageGraph) -> str:
    return json.dumps(graph.to_dict(), indent=2, sort_keys=True) + "\n"
