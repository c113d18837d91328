"""CLI: ``python -m repro.tools <trace.csv>`` — post-process a fault trace.

The offline half of the §IV workflow: load a trace saved with
:meth:`FaultTracer.save_csv`, print the standard analyses, and emit the
optimization suggestions.
"""

from __future__ import annotations

import argparse
import sys

from repro.tools.analysis import TraceAnalysis
from repro.tools.suggestions import OptimizationAdvisor
from repro.tools.tracer import FaultTracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools",
        description="Analyze a DeX page-fault trace (§IV).",
    )
    parser.add_argument("trace", help="CSV written by FaultTracer.save_csv")
    parser.add_argument("--top", type=int, default=5,
                        help="entries per analysis section")
    parser.add_argument("--bucket-us", type=float, default=1000.0,
                        help="bucket width for the fault-rate histogram")
    args = parser.parse_args(argv)

    try:
        tracer = FaultTracer.load_csv(args.trace)
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    analysis = TraceAnalysis(tracer)
    print(analysis.report(top=args.top))
    print()
    histogram = analysis.fault_rate_over_time(bucket_us=args.bucket_us)
    if histogram:
        peak = max(count for _, count in histogram)
        print(f"fault rate over time ({args.bucket_us:.0f} us buckets, "
              f"peak {peak}):")
        for start, count in histogram[: args.top * 4]:
            bar = "#" * max(1, round(40 * count / peak))
            print(f"  {start:>12.0f} {bar} {count}")
        print()
    print(OptimizationAdvisor(analysis).report(top=args.top))
    return 0


if __name__ == "__main__":
    sys.exit(main())
