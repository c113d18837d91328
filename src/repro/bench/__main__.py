"""CLI: ``python -m repro.bench <experiment>|all``: render each experiment's
rows and exit 1 when any row falls outside its band."""

from __future__ import annotations

import argparse
import sys

from repro.apps.common import APP_NAMES, add_run_arguments, refuse_ignored_flags
from repro.bench import experiments


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the tables and figures of the DeX paper and "
                    "check them against the paper's shape.")
    parser.add_argument("experiment", choices=[*experiments.EXPERIMENTS, "all"])
    # figure2's sweep: every --apps x --nodes point at --scale/--directory
    add_run_arguments(parser, "--apps", "--nodes", "--scale", "--directory",
                      apps=list(APP_NAMES), nodes=[1, 2, 4, 8])
    args = parser.parse_args(argv)
    refuse_ignored_flags(args, args.apps)
    failed = []
    for name, measure in experiments.EXPERIMENTS.items():
        if args.experiment in (name, "all"):
            rows = experiments.run(name, args)
            print(f"{name}: {measure.__doc__}\n{experiments.render(rows)}\n")
            failed += [row.name for row in rows if not row.ok]
    if failed:
        print(f"outside their band: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
