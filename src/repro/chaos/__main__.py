"""``python -m repro.chaos`` — run a workload under fault injection.

Examples::

    # the two-node control-message micro, dropping the first PAGE_REQUEST
    python -m repro.chaos --drop page_request

    # the §V-D fault ping-pong, 5 ms of it, its first PAGE_REQUEST dropped
    python -m repro.chaos --app pagefault --app-arg duration_us=5000 \\
        --drop page_request

    # kmeans on 4 nodes, node 2 fail-stops mid-run; one restart allowed
    python -m repro.chaos --app kmeans --nodes 4 --crash-node 2 \\
        --crash-at 30000 --max-restarts 1

    # a full scenario file, sanitizer on, sharded directory
    python -m repro.chaos --app string_match --scenario chaos.json \\
        --directory sharded

Exit status is 0 iff the workload completed with a correct result.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Tuple

from repro.apps.common import RunSpec, add_run_arguments
from repro.chaos.harness import run_under_chaos
from repro.chaos.scenario import (
    EXCLUSIVE_LOSS_POLICIES,
    ChaosError,
    ChaosRule,
    ChaosScenario,
)
from repro.core.errors import NodeFailedError


def _delay(text: str) -> Tuple[str, float]:
    """``MSG_TYPE:US`` (a bare MSG_TYPE is a zero delay, refused later)."""
    msg_type, _, us = text.partition(":")
    try:
        return msg_type, float(us or "0")
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expects MSG_TYPE:US, got {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="run a workload under a chaos scenario",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("Examples::", 1)[1],
    )
    # --seed unset: the scenario's seed, else 0
    add_run_arguments(parser, "--app", "--variant", "--nodes", "--scale",
                      "--directory", "--seed", "--app-arg", app="micro",
                      nodes=4)
    parser.add_argument("--no-sanitize", action="store_true",
                        help="run without the DexCheck coherence sanitizer")
    parser.add_argument("--max-restarts", type=int, default=1,
                        help="restarts allowed after a fail-stop")
    # scenario sources
    parser.add_argument("--scenario", default=None, metavar="FILE",
                        help="scenario JSON file (inline rule flags append)")
    parser.add_argument("--policy", default=None,
                        choices=EXCLUSIVE_LOSS_POLICIES,
                        help="what to do when a dead node held the only "
                        "current copy of a page")
    # inline rules
    parser.add_argument("--drop", action="append", default=[],
                        metavar="MSG_TYPE",
                        help="drop the first message of this type "
                        "(repeatable)")
    parser.add_argument("--drop-nth", type=int, default=1,
                        help="which match the --drop rules fire on")
    parser.add_argument("--delay", action="append", default=[],
                        type=_delay, metavar="MSG_TYPE:US",
                        help="delay the first message of this type by US "
                        "microseconds (repeatable)")
    parser.add_argument("--duplicate", action="append", default=[],
                        metavar="MSG_TYPE",
                        help="duplicate the first message of this type")
    parser.add_argument("--degrade", type=float, default=None, metavar="FACTOR",
                        help="divide link bandwidth by FACTOR for every "
                        "delivery")
    parser.add_argument("--crash-node", type=int, default=None,
                        help="fail-stop this node")
    parser.add_argument("--crash-at", type=float, default=None, metavar="US",
                        help="sim time of the --crash-node fail-stop")
    return parser


def _build_scenario(ns: argparse.Namespace) -> ChaosScenario:
    scenario = (ChaosScenario.from_file(ns.scenario)
                if ns.scenario else ChaosScenario())
    for msg_type in ns.drop:
        scenario.rules.append(
            ChaosRule(kind="drop", msg_type=msg_type, nth=ns.drop_nth))
    for msg_type, us in ns.delay:
        scenario.rules.append(ChaosRule(
            kind="delay", msg_type=msg_type, nth=1, delay_us=us))
    for msg_type in ns.duplicate:
        scenario.rules.append(
            ChaosRule(kind="duplicate", msg_type=msg_type, nth=1))
    if ns.degrade is not None:
        scenario.rules.append(
            ChaosRule(kind="degrade", factor=ns.degrade, times=None))
    if ns.crash_node is not None:
        scenario.rules.append(
            ChaosRule(kind="crash", node=ns.crash_node, at_us=ns.crash_at))
    elif ns.crash_at is not None:
        raise ChaosError("--crash-at needs --crash-node")
    if ns.policy is not None:
        scenario.on_exclusive_loss = ns.policy
    if ns.seed is not None:
        scenario.seed = ns.seed
    return scenario.validate()


def _print_report(report: dict) -> None:
    counters = {k: v for k, v in report.items() if k != "events"}
    print("chaos report:", json.dumps(counters, sort_keys=True))
    for line in report["events"]:
        print("  " + line)


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    spec = RunSpec.from_args(ns)
    try:
        scenario = _build_scenario(ns)
    except ChaosError as err:
        parser.error(str(err))

    try:
        outcome = run_under_chaos(spec, scenario,
                                  sanitize=not ns.no_sanitize,
                                  max_restarts=ns.max_restarts)
    except NodeFailedError as err:
        print(f"{spec.app}: did not survive the scenario: {err}",
              file=sys.stderr)
        _print_report(err.chaos_report)
        return 1
    for line in outcome.attempts:
        print(f"{spec.app}: {line}")
    result = outcome.result
    print(f"{result.app} {result.variant} nodes={result.num_nodes}: "
          f"elapsed={result.elapsed_us:.1f}us "
          f"correct={result.correct} "
          f"({len(outcome.attempts)} attempt(s))")
    _print_report(outcome.report)
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
