#!/usr/bin/env python3
"""DexBench: four workloads, two clocks, a per-layer ladder and a traced run.

Driver mode (the contract in ``BENCHMARK.json``)::

    python3 benchmarks/dexbench/run.py --workload pingpong --seed 42 \\
        --seconds 10 --trace 0     # end-to-end metrics, tracing off
    ... --trace 1                  # per-layer metrics from the traced run

Ledger mode, for ``compare.py`` and the committed results::

    python3 benchmarks/dexbench/run.py --all --seed 42 --traced --out r.json

Every number carries its clock: **host** (what the simulator costs us;
noisy) or **sim** (what modelled DeX would do; exact for a fixed seed).
The last line of standard output is one JSON object; any wrong result
makes ``correct`` false and the exit code non-zero.

One process, one thread: this parent only orchestrates.  Each measurement
runs in a fresh ``--worker`` subprocess with ``PYTHONHASHSEED=0``,
``PYTHONPATH=src`` and the program's ``DEX_*`` knobs removed from the
environment, so ``setup_s`` and ``peak_rss_mb`` are clean.  A timed run is
``ROUNDS`` such workers one after another, each a cold set-up followed by
its share of the repetitions, so that the repetitions are spread over the
whole run and not packed into its last third.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
sys.path.insert(0, str(HERE))

import catalogue  # noqa: E402  (stdlib-only; safe without the program)

#: a run's wall_s is taken over at least this many timed repetitions
MIN_REPS = 5
#: timed workers per run: each sets up cold (setup_s is the median of the
#: set-ups) and then repeats for its share of ``--seconds``
ROUNDS = 3
#: glibc malloc, for every worker: serve numpy's arrays from the heap and
#: never hand the heap back.  By default each repetition maps and unmaps
#: its big arrays again, and the page faults that costs are the part of a
#: repetition the shared host disturbs most (README, "Run discipline").
STEADY_MALLOC = {"MALLOC_MMAP_MAX_": "0",
                 "MALLOC_TRIM_THRESHOLD_": str(1 << 40)}
#: untraced repetitions of the traced run (per-part walls, sampler baseline)
TRACED_PLAIN_REPS = 3


# ---------------------------------------------------------------------------
# workers (fresh subprocess each; these import the program)
# ---------------------------------------------------------------------------


def _set_up(name: str, seed: int, spawned_at: float, spans: Any = None):
    """Import the program, prepare the workload, run the warm-up
    repetition.  Returns ``(workload, warm-up Rep, host numbers)`` with
    ``setup_s`` counted from the parent's clock just before the spawn, so
    interpreter start and imports are inside it."""
    t0 = time.perf_counter()
    import workloads  # the first import of repro and numpy
    import_s = time.perf_counter() - t0
    workload = workloads.make(name, seed, spans)
    with workload.part("prepare"):
        workload.prepare()
    with workload.part("warm-up"):
        warm = workload.repeat()
    return workload, warm, {"setup_s": time.time() - spawned_at,
                            "import_s": import_s}


def _gc_collections() -> int:
    return sum(generation["collections"] for generation in gc.get_stats())


def _check(rep: Any, reference: Any, violations: List[str]) -> int:
    """Output checks of one repetition; returns the failures it adds."""
    violations.extend(rep.violations)
    if rep.digest != reference.digest:
        violations.append("sim_digest differs between repetitions")
        return rep.failed + 1
    return rep.failed


def part_floor(parts: Dict[str, List[float]]) -> float:
    """``wall_s``: the sum over the parts of a repetition (an app point, a
    serve level) of each part's fastest time across the repetitions.

    Host noise on a shared box only ever adds time, in bursts of tens of
    milliseconds to tens of seconds.  A part needs one quiet moment in
    five-plus repetitions to show its floor; a whole repetition, let alone
    the median repetition, needs a quiet second or three.  Measured on the
    2-core sandbox (README, "Run discipline"): run-to-run spread 6.8 %
    for the median repetition, 4.1 % for the fastest, 3.3 % for this."""
    return sum(min(times) for times in parts.values())


def worker_timed(args: argparse.Namespace) -> Dict[str, Any]:
    """One round of a timed run: a cold set-up, then repetitions for
    ``--seconds`` (the parent passes this round's share)."""
    import tracing
    spans = tracing.Spans()  # only to time the parts: no sampler, no ladder
    workload, warm, host = _set_up(args.workload, args.seed, args.spawned_at)
    workload.spans = spans
    violations = list(warm.violations)
    walls: List[float] = []
    cpus: List[float] = []
    attempted = failed = refused = 0
    gc.collect()
    collections = _gc_collections()
    started = time.perf_counter()
    while (len(walls) * ROUNDS < MIN_REPS
           or time.perf_counter() - started < args.seconds):
        c0 = time.process_time()
        t0 = time.perf_counter()
        rep = workload.repeat()
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        attempted += rep.attempted
        refused += rep.refused
        failed += _check(rep, warm, violations)
    host["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "host": host, "sim": warm.sim, "samples": warm.samples,
        "outputs": warm.outputs, "sim_digest": warm.digest,
        "walls": walls, "cpus": cpus, "parts": spans.by_name(),
        "gc_collections": _gc_collections() - collections,
        "attempted": attempted, "failed": failed, "refused": refused,
        "violations": violations,
    }


def merge_rounds(rounds: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold the rounds of one timed run into one document.  Times are
    pooled (``wall_s`` is the part floor over every repetition of every
    round), counts are summed, and the sim clock must agree across rounds."""
    from stats import iqr_share
    median = statistics.median
    doc = dict(rounds[0])
    for key in ("walls", "cpus", "violations"):
        doc[key] = [x for r in rounds for x in r[key]]
    for key in ("attempted", "failed", "refused", "gc_collections"):
        doc[key] = sum(r[key] for r in rounds)
    doc["parts"] = {name: [t for r in rounds for t in r["parts"][name]]
                    for name in rounds[0]["parts"]}
    if any(r["sim_digest"] != doc["sim_digest"] for r in rounds):
        doc["violations"].append("sim_digest differs between rounds")
        doc["failed"] += 1
    doc["setup_samples"] = [r["host"]["setup_s"] for r in rounds]
    doc["host"] = {
        "wall_s": part_floor(doc["parts"]),
        "setup_s": median(doc["setup_samples"]),
        "peak_rss_mb": median(r["host"]["peak_rss_mb"] for r in rounds),
        "import_s": median(r["host"]["import_s"] for r in rounds),
        "host.wall_median_s": median(doc["walls"]),
        "host.cpu_s": median(doc.pop("cpus")),
        "host.wall_iqr_pct": 100.0 * iqr_share(doc["walls"]),
        "host.gc_collections": doc.pop("gc_collections") / len(doc["walls"]),
    }
    return doc


def _counters(clusters: List[Any], stats: List[Any]) -> Dict[str, float]:
    """The C metrics: exact counters of public objects after a run."""
    def total(attr: str) -> int:
        return sum(getattr(s, attr) for s in stats)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def mean(xs: List[float]) -> float:
        return sum(xs) / len(xs) if xs else 0.0

    faults = sum(s.total_faults for s in stats)
    skipped, moved = total("transfers_skipped"), total("pages_transferred")
    hints = total("hint_hits") + total("hint_misses")
    dir_by_home: Dict[int, int] = {}
    for s in stats:
        for home, n in s.directory_requests.items():
            dir_by_home[home] = dir_by_home.get(home, 0) + n
    dir_total = sum(dir_by_home.values())
    records = [r for s in stats for r in s.fault_latencies]
    modes = {
        "fast": [r.latency_us for r in records
                 if not r.coalesced and r.retries == 0],
        "contended": [r.latency_us for r in records
                      if not r.coalesced and r.retries > 0],
        "coalesced": [r.latency_us for r in records if r.coalesced],
    }
    leaders = len(modes["fast"]) + len(modes["contended"])
    return {
        "sim.events": sum(c.engine.events_dispatched for c in clusters),
        "net.msgs": sum(c.net.messages_sent for c in clusters),
        "net.wire_mb": sum(conn.bytes_on_wire for c in clusters
                           for conn in c.net.connections.values()) / 1e6,
        "net.page_payloads": sum(c.net.page_payloads for c in clusters),
        "net.pool_stalls": sum(sum(c.net.pool_pressure().values())
                               for c in clusters),
        "core.faults": faults,
        "core.write_fault_ratio": ratio(total("faults_write"), faults),
        "core.coalesced_ratio": ratio(total("faults_coalesced"), faults),
        "core.retries_per_fault": ratio(total("fault_retries"), faults),
        "core.pages_transferred": moved,
        "core.transfer_skip_ratio": ratio(skipped, skipped + moved),
        "core.invalidations": total("invalidations_sent"),
        "core.dir_requests": dir_total,
        # every process of the four workloads has its origin on node 0
        "core.origin_dir_share": ratio(dir_by_home.get(0, 0), dir_total),
        "core.hint_hit_ratio": ratio(total("hint_hits"), hints),
        "core.migrations": sum(len(s.migrations) for s in stats),
        "core.delegations": total("delegations"),
        "core.futex_ops": total("futex_waits") + total("futex_wakes"),
        "core.vma_queries": total("vma_queries"),
        "core.fault_fast_ratio": ratio(len(modes["fast"]), leaders),
        "core.fault_fast_mean_us": mean(modes["fast"]),
        "core.fault_contended_mean_us": mean(modes["contended"]),
        "core.fault_coalesced_mean_us": mean(modes["coalesced"]),
    }


def _hashseed_stable(seed: int, ours: str) -> float:
    """1 if a short run's sim digest is the same under PYTHONHASHSEED=1."""
    out = _spawn(["--worker", "digest", "--seed", str(seed)], hashseed="1")
    return 1.0 if out["digest"] == ours else 0.0


def worker_traced(args: argparse.Namespace) -> Dict[str, Any]:
    import tracing
    spans = tracing.Spans()
    with spans.span("setup"):
        workload, warm, host = _set_up(
            args.workload, args.seed, args.spawned_at, spans)
    import ladder
    from stats import iqr_share
    median = statistics.median
    violations = list(warm.violations)
    failed = 0
    cpus = []
    gc.collect()
    collections = _gc_collections()
    for _ in range(TRACED_PLAIN_REPS):
        c0 = time.process_time()
        with spans.span("repetition"):
            rep = workload.repeat()
        cpus.append(time.process_time() - c0)
        failed += _check(rep, warm, violations)
    collections = _gc_collections() - collections
    walls = spans.durations("repetition")
    # (b) one more repetition under the sampler, with the clusters kept
    clusters: List[Any] = []
    with spans.span("repetition:sampled"), tracing.Sampler() as sampler:
        sampled = workload.repeat(clusters)
    failed += _check(sampled, warm, violations)
    sampled_wall = spans.durations("repetition:sampled")[0]

    m: Dict[str, float] = {metric.name: 0.0 for metric in catalogue.PER_LAYER}
    m.update({k: v for k, v in warm.sim.items() if k in m})
    for pkg, share in sampler.shares().items():
        m["host.other_share" if pkg == tracing.OTHER else f"{pkg}.self_share"] = share
    m.update(_counters(clusters, sampled.stats))
    m["sim.host_us_per_event"] = 1e6 * sampled_wall / m["sim.events"]
    attempted = warm.attempted
    m["failed_ops_ratio"] = (warm.failed + warm.refused) / attempted
    for part, times in spans.by_name().items():
        if part.startswith("point:"):
            # plain repetitions only: not the warm-up (first), not the sampled
            m[f"apps.{part[6:]}.wall_s"] = median(times[1:-1])
    if args.workload == "serve_mix":
        m["serve.requests_per_host_s"] = attempted / median(walls)
    with spans.span("ladder"):
        m.update(ladder.run_ladder(args.seed, spans))
        with spans.span("ladder:hashseed"):
            m["host.hashseed_stable"] = _hashseed_stable(
                args.seed, ladder.short_digest(args.seed))
    m.update({
        "host.cpu_s": median(cpus),
        "host.import_s": host["import_s"],
        "host.wall_median_s": median(walls),
        "host.wall_iqr_pct": 100.0 * iqr_share(walls),
        "host.sampler_overhead_x": sampled_wall / median(walls),
        "host.gc_collections": collections / TRACED_PLAIN_REPS,
    })
    return {
        "metrics": m, "samples": warm.samples, "sim_digest": warm.digest,
        "attempted": attempted * (TRACED_PLAIN_REPS + 1), "failed": failed,
        "violations": violations, "spans": spans.records,
        "sampler_samples": sampler.samples,
    }


def worker_digest(args: argparse.Namespace) -> Dict[str, Any]:
    import ladder
    return {"digest": ladder.short_digest(args.seed)}


WORKERS = {"timed": worker_timed, "traced": worker_traced,
           "digest": worker_digest}


# ---------------------------------------------------------------------------
# parent
# ---------------------------------------------------------------------------


def _spawn(argv: List[str], hashseed: str = "0") -> Dict[str, Any]:
    """Run one worker to completion; its last stdout line is a JSON doc."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("DEX_")}
    env["PYTHONHASHSEED"] = hashseed
    env.update(STEADY_MALLOC)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "run.py"), *argv,
           "--spawned-at", repr(time.time())]
    done = subprocess.run(cmd, env=env, cwd=str(REPO), stdout=subprocess.PIPE,
                          text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"worker {argv} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def environment() -> Dict[str, Any]:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "machine": platform.machine()}


def measure(workload: str, seed: int, seconds: float, trace: bool
            ) -> Dict[str, Any]:
    """One driver-mode run of one workload; returns the full detail doc
    (``result`` inside it is the contract's last line)."""
    base = ["--workload", workload, "--seed", str(seed)]
    if trace:
        doc = _spawn(["--worker", "traced", *base])
        values = doc.pop("metrics")
        wanted = catalogue.PER_LAYER
    else:
        doc = merge_rounds([
            _spawn(["--worker", "timed", *base,
                    "--seconds", repr(seconds / ROUNDS)])
            for _ in range(ROUNDS)])
        values = {**doc["sim"], **doc.pop("host")}
        doc["layers"] = {k: v for k, v in values.items()
                         if k.startswith("host.")}
        wanted = catalogue.E2E
    doc["result"] = {
        "correct": not doc["violations"] and doc["failed"] == 0,
        "attempted": doc["attempted"], "failed": doc["failed"],
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit}
                    for m in wanted},
    }
    problems = catalogue.validate_result(doc["result"], trace)
    if problems:
        raise RuntimeError("malformed result: " + "; ".join(problems))
    return doc


def render(workload: str, seed: int, doc: Dict[str, Any]) -> str:
    """Every metric by name with value, unit, clock, direction and bound."""
    result = doc["result"]
    lines = [f"== {workload}  seed {seed}  sim_digest {doc['sim_digest'][:16]}  "
             f"attempted {result['attempted']}  failed {result['failed']}  "
             f"correct {result['correct']}"]
    if workload == "serve_mix":
        lines.append("   open loop; latency counted from each request's due "
                     "time; generator lateness 0 by construction")
    for name, entry in result["metrics"].items():
        m = catalogue.BY_NAME[name]
        if workload not in m.workloads:
            continue
        bound = ("" if m.bound is None and m.abs_bound is None else
                 f"  bound +{m.abs_bound} abs" if m.abs_bound is not None else
                 f"  bound {100 * m.bound:g}%")
        note = ""
        if name in doc.get("samples", {}):
            pct, n = doc["samples"][name]
            note = f"  [p{pct:.1f} of {n} samples]"
        lines.append(f"   {name:32s} {entry['value']:>16.6g} {m.unit:6s} "
                     f"{m.clock:5s} {m.better:6s} {m.source}{bound}{note}")
    if "walls" in doc:
        lines.append(f"   repetitions {len(doc['walls'])}  median "
                     f"{doc['layers']['host.wall_median_s']:.4g} s  spread "
                     f"{doc['layers']['host.wall_iqr_pct']:.1f}% (IQR/median)"
                     f"  set-ups {[round(s, 3) for s in doc['setup_samples']]}")
    for violation in doc["violations"]:
        lines.append(f"   VIOLATION: {violation}")
    return "\n".join(lines)


def run_all(seed: int, seconds: float, traced: bool, out: Optional[str]) -> int:
    ledger: Dict[str, Any] = {
        "schema": catalogue.RESULT_SCHEMA, "seed": seed,
        "run_seconds": seconds, "env": environment(),
        "reps_min": MIN_REPS, "rounds": ROUNDS, "workloads": {},
    }
    ok = True
    for name, _ in catalogue.WORKLOADS:
        entry: Dict[str, Any] = {}
        for trace in ((False, True) if traced else (False,)):
            doc = measure(name, seed, seconds, trace)
            print(render(name, seed, doc), flush=True)
            ok = ok and doc["result"]["correct"]
            key = "traced" if trace else "timed"
            entry[key] = {k: v for k, v in doc.items() if k != "spans"}
            if trace:
                entry["spans"] = doc["spans"]
        ledger["workloads"][name] = entry
    if out:
        Path(out).write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[n for n, _ in catalogue.WORKLOADS])
    ap.add_argument("--seed", type=int, default=catalogue.TUNING_SEED)
    ap.add_argument("--seconds", type=float, default=catalogue.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="run all four workloads and write a ledger")
    ap.add_argument("--traced", action="store_true",
                    help="with --all: also make the traced run of each workload")
    ap.add_argument("--out", help="with --all: where to write the ledger JSON")
    ap.add_argument("--write-benchmark-json", action="store_true",
                    help="regenerate BENCHMARK.json from the catalogue")
    ap.add_argument("--catalogue", action="store_true",
                    help="print the metric catalogue as README.md's tables")
    ap.add_argument("--worker", choices=sorted(WORKERS), help=argparse.SUPPRESS)
    ap.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.catalogue:
        print(catalogue.markdown_tables())
        return 0
    if args.write_benchmark_json:
        (REPO / "BENCHMARK.json").write_text(
            json.dumps(catalogue.benchmark_json(), indent=2) + "\n")
        return 0
    if not (REPO / "src" / "repro" / "__init__.py").is_file():
        print(f"dexbench: no program to measure: {REPO / 'src' / 'repro'} "
              "is missing", file=sys.stderr)
        return 2
    if args.worker:
        print(json.dumps(WORKERS[args.worker](args)))
        return 0
    if args.all:
        return run_all(args.seed, args.seconds, args.traced, args.out)
    if not args.workload:
        ap.error("give --workload, or --all")
    doc = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(render(args.workload, args.seed, doc))
    print(json.dumps(doc["result"]))
    return 0 if doc["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
