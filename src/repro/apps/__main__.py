"""CLI: ``python -m repro.apps <APP>`` — run one evaluation application.

Prints one line per ``--nodes`` value: elapsed sim time, whether the
output is correct, faults, retries, pages transferred and migrations; exits
1 on a wrong output.  Speed-ups over the unmodified one-node run are
``python -m repro.bench figure2 --apps <APP> --nodes ...``'s job.

Examples::

    python -m repro.apps GRP --nodes 4 --variant optimized
    python -m repro.apps BP --nodes 1 2 4 8 --variant initial --scale paper
"""

from __future__ import annotations

import argparse
import sys

from repro.apps.common import RunSpec, add_run_arguments


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.apps",
        description="Run one of the paper's eight applications on the "
        "simulated rack.",
    )
    add_run_arguments(parser, "app", "--nodes", "--variant",
                      "--threads-per-node", "--scale", nodes=[1])
    args = parser.parse_args(argv)
    for n in args.nodes:
        result = RunSpec.from_args(args, nodes=n).run()
        stats = result.stats
        print(
            f"{args.app} {args.variant} n={n}: "
            f"{result.elapsed_us / 1000:8.2f} ms  "
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
