"""CLI: ``python -m repro.bench <experiment>``.

Experiments: table1, table2, figure2, figure3, pagefault, ablation, all.
"""

from __future__ import annotations

import argparse
import sys

from repro.apps.common import APP_NAMES, add_run_arguments
from repro.bench import experiments, reporting


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the tables and figures of the DeX paper.",
    )
    parser.add_argument(
        "experiment",
        choices=["table1", "table2", "figure2", "figure3", "pagefault",
                 "ablation", "all"],
    )
    # figure2's sweep: every --apps x --nodes point at --scale/--directory
    add_run_arguments(parser, "--apps", "--nodes", "--scale", "--directory",
                      apps=list(APP_NAMES), nodes=[1, 2, 4, 8])
    args = parser.parse_args(argv)
    todo = (
        ["table1", "table2", "figure3", "pagefault", "figure2", "ablation"]
        if args.experiment == "all"
        else [args.experiment]
    )
    for name in todo:
        if name == "table1":
            print(reporting.render_table1(experiments.table1()))
        elif name == "table2":
            print(reporting.render_table2(experiments.migration_microbench()))
        elif name == "figure3":
            print(reporting.render_figure3(experiments.migration_microbench()))
        elif name == "pagefault":
            print(reporting.render_pagefault(experiments.pagefault_micro()))
        elif name == "figure2":
            points = experiments.figure2(
                apps=args.apps, node_counts=args.nodes, scale=args.scale,
                directory=args.directory,
            )
            print(reporting.render_figure2(points))
        elif name == "ablation":
            print(reporting.render_ablation(
                "Ablation: leader-follower fault coalescing (§III-C)",
                experiments.ablation_coalescing(),
            ))
            print(reporting.render_ablation(
                "Ablation: page-data transfer path (§III-E)",
                experiments.ablation_transfer_mode(),
            ))
            print(reporting.render_ablation(
                "Ablation: data-transfer skip for up-to-date copies (§III-B)",
                experiments.ablation_transfer_skip(),
            ))
            print(reporting.render_ablation(
                "Ablation: coherence-directory placement "
                "(origin-resident vs sharded home-node)",
                experiments.ablation_directory(),
            ))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
