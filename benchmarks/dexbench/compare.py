#!/usr/bin/env python3
"""Compare two DexBench ledgers (``run.py --all --out``), row by row.

    python3 benchmarks/dexbench/compare.py A.json B.json
    python3 benchmarks/dexbench/compare.py --aa [--seed N]

One row per workload x gated metric (the end-to-end metrics plus the
user-visible ones that exist on that workload): direction, bound, both
values, the change, and a verdict for B against baseline A:

``better``      improved (host clock: by more than the bound)
``within``      no worse than the bound allows
``worse``       worse by more than the bound -> exit code 1
``unresolved``  a host-clock time (``wall_s``, ``setup_s``) whose samples on
                either side spread wider than the bound: the data cannot
                tell a regression from noise

``--aa`` measures the same checkout twice and fails if any host-clock
pair differs by more than its bound in either direction, or if any
sim-clock metric or ``sim_digest`` differs at all.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import catalogue  # noqa: E402
from stats import iqr_share  # noqa: E402


def load(path: str) -> Dict[str, Any]:
    doc = json.loads(Path(path).read_text())
    if doc.get("schema") != catalogue.RESULT_SCHEMA:
        raise SystemExit(f"{path}: not a {catalogue.RESULT_SCHEMA} ledger")
    return doc


def gated_values(entry: Dict[str, Any], workload: str) -> Dict[str, float]:
    """Every gated metric of one workload, from its timed run."""
    timed = entry["timed"]
    values = {name: m["value"]
              for name, m in timed["result"]["metrics"].items()}
    for metric in catalogue.USER:
        if workload in metric.workloads and metric.name in timed["sim"]:
            values[metric.name] = timed["sim"][metric.name]
    values["failed_ops_ratio"] = (
        (timed["failed"] + timed["refused"]) / timed["attempted"])
    return values


def worsening(metric: catalogue.Metric, a: float, b: float) -> float:
    """How much worse B is than A, as a share of A (absolute units for an
    ``abs_bound`` metric); negative means better."""
    signed = (b - a) if metric.better == "lower" else (a - b)
    if metric.abs_bound is not None:
        return signed
    if a == 0:
        return 0.0 if signed == 0 else float("inf") * signed
    return signed / abs(a)


def verdict(metric: catalogue.Metric, a: float, b: float,
            spread: float) -> str:
    bound = metric.limit
    worse_by = worsening(metric, a, b)
    if metric.clock == "host":
        if spread > bound:
            return "unresolved"
        if worse_by < -bound:
            return "better"
    elif worse_by < 0:
        return "better"  # sim clock and counts repeat exactly: any gain is real
    return "worse" if worse_by > bound else "within"


#: the samples behind each host-clock time, by key of the timed document
TIME_SAMPLES = {"wall_s": "walls", "setup_s": "setup_samples"}


def rows(a: Dict[str, Any], b: Dict[str, Any]
         ) -> Iterator[Tuple[str, catalogue.Metric, float, float, float]]:
    """(workload, metric, value A, value B, sample spread) per gated pair."""
    for workload, _ in catalogue.WORKLOADS:
        ea, eb = a["workloads"].get(workload), b["workloads"].get(workload)
        if ea is None or eb is None:
            continue
        va, vb = gated_values(ea, workload), gated_values(eb, workload)
        for metric in catalogue.GATED:
            if workload not in metric.workloads or metric.name not in va:
                continue
            key = TIME_SAMPLES.get(metric.name)
            spread = 0.0 if key is None else max(
                iqr_share(ea["timed"][key]), iqr_share(eb["timed"][key]))
            yield workload, metric, va[metric.name], vb[metric.name], spread


def compare(a: Dict[str, Any], b: Dict[str, Any], aa: bool = False) -> int:
    """Print the table; returns the number of failing rows."""
    if a["seed"] != b["seed"]:
        print(f"note: seeds differ ({a['seed']} vs {b['seed']}); sim-clock "
              "rows compare different inputs")
    failures = 0
    print(f"{'workload':15s} {'metric':24s} {'clock':5s} {'better':6s} "
          f"{'bound':>8s} {'A':>14s} {'B':>14s} {'change':>9s}  verdict")
    for workload, metric, va, vb, spread in rows(a, b):
        word = verdict(metric, va, vb, spread)
        if aa:
            if metric.clock == "host":
                word = ("outside"
                        if abs(worsening(metric, va, vb)) > metric.limit
                        else "agree")
            else:
                word = "agree" if va == vb else "differs"
        failed = word in ("worse", "outside", "differs")
        failures += failed
        bound_s = (f"+{metric.abs_bound:g}" if metric.abs_bound is not None
                   else f"{100 * metric.bound:g}%")
        change = (f"{100 * (vb - va) / abs(va):+8.2f}%" if va else
                  f"{vb - va:+9.3g}")
        print(f"{workload:15s} {metric.name:24s} {metric.clock:5s} "
              f"{metric.better:6s} {bound_s:>8s} {va:14.6g} {vb:14.6g} "
              f"{change:>9s}  {word}{'  <--' if failed else ''}")
    for workload, _ in catalogue.WORKLOADS:
        ea, eb = a["workloads"].get(workload), b["workloads"].get(workload)
        if ea is None or eb is None:
            continue
        da, db = ea["timed"]["sim_digest"], eb["timed"]["sim_digest"]
        same = da == db
        print(f"{workload:15s} sim_digest {da[:16]} vs {db[:16]}  "
              f"{'identical' if same else 'DIFFERENT'}")
        if aa and not same:
            failures += 1
    return failures


def run_aa(seed: int) -> int:
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".aa-") as tmp:
        paths = [str(Path(tmp) / f"{side}.json") for side in "AB"]
        for path in paths:
            subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--all",
                 "--seed", str(seed), "--out", path],
                check=True, stdout=subprocess.DEVNULL)
        failures = compare(load(paths[0]), load(paths[1]), aa=True)
    print("A/A:", "agree" if not failures else f"{failures} rows disagree")
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("ledgers", nargs="*", metavar="LEDGER.json")
    ap.add_argument("--aa", action="store_true",
                    help="measure this checkout twice and require agreement")
    ap.add_argument("--seed", type=int, default=catalogue.TUNING_SEED)
    args = ap.parse_args(argv)
    if args.aa:
        return run_aa(args.seed)
    if len(args.ledgers) != 2:
        ap.error("give two ledgers, or --aa")
    failures = compare(load(args.ledgers[0]), load(args.ledgers[1]))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
