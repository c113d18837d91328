"""CLI: ``python -m repro.apps <APP>`` — run one evaluation application.

Examples::

    python -m repro.apps GRP --nodes 4 --variant optimized
    python -m repro.apps BP --nodes 1 2 4 8 --variant initial --scale paper
"""

from __future__ import annotations

import argparse
import sys

from repro.apps.common import add_run_arguments
from repro.bench.runner import run_point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.apps",
        description="Run one of the paper's eight applications on the "
        "simulated rack.",
    )
    add_run_arguments(parser, "app", "--nodes", "--variant",
                      "--threads-per-node", "--scale", nodes=[1])
    args = parser.parse_args(argv)

    baseline = None
    for n in args.nodes:
        result = run_point(
            args.app, args.variant, n, scale=args.scale,
            threads_per_node=args.threads_per_node,
        )
        if baseline is None:
            base = run_point(args.app, "unmodified", 1, scale=args.scale,
                             threads_per_node=args.threads_per_node)
            if base.correct is not True:
                print("ERROR: wrong baseline (unmodified, 1 node) output",
                      file=sys.stderr)
                return 1
            baseline = base.elapsed_us
            print(f"{args.app} baseline (unmodified, 1 node, "
                  f"{args.threads_per_node} threads): "
                  f"{baseline / 1000:.2f} ms\n")
        stats = result.stats
        print(
            f"{args.app} {args.variant} n={n}: "
            f"{result.elapsed_us / 1000:8.2f} ms  "
            f"({baseline / result.elapsed_us:5.2f}x)  "
            f"correct={result.correct}  "
            f"faults={stats.total_faults} retries={stats.fault_retries} "
            f"pages={stats.pages_transferred} "
            f"migrations={len(stats.migrations)}"
        )
        if result.correct is not True:
            print("ERROR: wrong application output", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
