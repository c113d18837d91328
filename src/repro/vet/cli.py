"""CLI entry point: ``python -m repro.vet [check|graph] [paths...]``.

``check`` (the default) runs every registered rule.  With no paths it
vets the installed ``repro`` package in repo mode (offline-tooling
exemptions apply); with explicit paths it vets exactly those files with
no exemptions.  A first positional other than ``check`` or ``graph`` is
a path.  Exits 1 when anything is reported: a finding is fixed, never
suppressed.

``graph`` prints the extracted message graph — text by default,
``--dot`` for Graphviz, ``--json`` for the golden-snapshot dict.

A flag the command does not take (``check --dot``, ``graph --rules``) or
an unknown rule name is a usage error: one line on stderr, exit 2.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.vet import ALL_RULES, build_context, run_rules
from repro.vet.loader import package_root
from repro.vet.report import (
    render_graph_json, render_graph_text, render_json, render_text,
)

PROG = "python -m repro.vet"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="DexVet: whole-program message-graph and effect "
                    "analysis for the coherence protocol",
    )
    parser.add_argument(
        "command", nargs="?", default="check",
        help="check (default): run the rules; graph: print the message "
             "graph; anything else is the first path",
    )
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="files or directories to analyze (default: the repro package)",
    )
    parser.add_argument(
        "--rules", default=None,
        help="check command: comma-separated rule subset (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule names",
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable output",
    )
    parser.add_argument(
        "--dot", action="store_true",
        help="graph command: emit Graphviz DOT",
    )
    parser.add_argument(
        "-o", "--output", type=Path, default=None,
        help="write the report to a file instead of stdout",
    )
    return parser


def _usage_error(message: str) -> int:
    print(f"{PROG}: error: {message}", file=sys.stderr)
    return 2


def _emit(text: str, output: Optional[Path]) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        output.write_text(text)
        print(f"wrote {output}")


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_intermixed_args(argv)
    if args.command not in ("check", "graph"):
        args.paths.insert(0, Path(args.command))
        args.command = "check"

    if args.list_rules:
        for name in ALL_RULES:
            print(name)
        return 0

    if args.command == "check" and args.dot:
        return _usage_error("--dot applies to the graph command only")
    if args.command == "graph" and args.rules is not None:
        return _usage_error("--rules applies to the check command only")
    rules = None
    if args.rules:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]
        unknown = [r for r in rules if r not in ALL_RULES]
        if unknown:
            return _usage_error(f"unknown rule(s): {', '.join(unknown)}")

    repo_scan = not args.paths
    ctx = build_context(args.paths or [package_root()], repo_mode=repo_scan)

    if args.command == "graph":
        if args.dot:
            _emit(ctx.graph.to_dot(), args.output)
        elif args.json:
            _emit(render_graph_json(ctx.graph), args.output)
        else:
            _emit(render_graph_text(ctx.graph), args.output)
        return 0

    violations = run_rules(ctx, rules)
    if args.json:
        _emit(render_json(violations), args.output)
    else:
        _emit(render_text(violations, checked=len(ctx.modules)), args.output)
    return 1 if violations else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
