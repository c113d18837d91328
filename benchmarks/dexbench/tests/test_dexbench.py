"""Unit tests of the DexBench harness itself (not of the program).

Run by explicit path; they are outside tier-1's ``testpaths`` and need
neither ``repro`` nor a benchmark run::

    python -m pytest benchmarks/dexbench/tests -q
"""

from __future__ import annotations

import json
import math
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
REPO = HERE.parent.parent
sys.path.insert(0, str(HERE))

import catalogue  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from stats import digest, iqr_share, tail_percentile  # noqa: E402


# ---- the ten-samples-beyond percentile rule --------------------------------


@pytest.mark.parametrize("n, rank, pct", [
    (2000, 1980, 99.0),   # p99 leaves 20 beyond: p99 it is
    (1000, 990, 99.0),    # exactly ten beyond
    (500, 490, 98.0),     # p99 would leave 5: back off to p98
    (372, 362, 100.0 * 362 / 372),
    (21, 11, 100.0 * 11 / 21),   # ten beyond the 11th: just the median
    (15, 8, 100.0 * 8 / 15),     # no tail at all: the median
    (1, 1, 100.0),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, rank, pct):
    values = list(range(1, n + 1))
    np.random.default_rng(0).shuffle(values)
    value, used, count = tail_percentile(values)
    assert (value, count) == (rank, n)
    assert used == pytest.approx(pct)
    if n >= 21:
        assert sum(1 for v in values if v > value) >= 10


def test_tail_percentile_other_targets_and_empty():
    values = [float(v) for v in range(1, 101)]
    assert tail_percentile(values, target=50.0)[0] == 50.0
    assert tail_percentile(values, target=99.0)[0] == 90.0
    with pytest.raises(ValueError):
        tail_percentile([])


def test_iqr_share_is_the_contract_spread():
    values = [1.0, 1.1, 0.9, 1.3, 1.05, 0.95, 1.2, 1.0, 0.98, 1.02]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert iqr_share(values) == pytest.approx(
        (q3 - q1) / statistics.median(values))
    assert iqr_share([3.0]) == 0.0


def test_digest_is_exact_and_order_stable():
    a = {"x": 0.1 + 0.2, "arr": np.arange(4.0), "n": [1, "s", None, True]}
    b = {"n": [1, "s", None, True], "arr": np.arange(4.0), "x": 0.1 + 0.2}
    assert digest(a) == digest(b)
    assert digest(a) != digest({**a, "x": 0.3})          # one ulp apart
    assert digest({"v": 1}) != digest({"v": 1.0})        # type tagged
    assert digest(np.arange(4)) != digest(np.arange(4.0))
    with pytest.raises(TypeError):
        digest(object())


# ---- frame -> layer bucketing ----------------------------------------------


class _Code:
    def __init__(self, filename):
        self.co_filename = filename


class _Frame:
    def __init__(self, filename, back=None):
        self.f_code = _Code(filename)
        self.f_back = back


def _stack(*filenames):
    """Build a fake stack; the first name is the outermost frame."""
    frame = None
    for filename in filenames:
        frame = _Frame(filename, frame)
    return frame


def test_layer_of_path():
    assert tracing.layer_of_path("/x/src/repro/core/fault.py") == "core"
    assert tracing.layer_of_path("/x/src/repro/apps/npb/bt.py") == "apps"
    assert tracing.layer_of_path("C:\\x\\repro\\sim\\engine.py") == "sim"
    assert tracing.layer_of_path("/x/src/repro/params.py") is None
    assert tracing.layer_of_path("/x/src/repro/bench/runner.py") is None
    assert tracing.layer_of_path("/usr/lib/python3/heapq.py") is None


def test_stack_is_charged_to_the_nearest_repro_frame():
    run = "/r/benchmarks/dexbench/run.py"
    # numpy called from an app body lands on apps, not on sim below it
    assert tracing.layer_of_stack(_stack(
        run, "/r/src/repro/sim/engine.py", "/r/src/repro/apps/kmeans.py",
        "/site/numpy/core/fromnumeric.py")) == "apps"
    # innermost wins when several layers are on the stack
    assert tracing.layer_of_stack(_stack(
        run, "/r/src/repro/apps/kmeans.py", "/r/src/repro/core/thread.py",
        "/r/src/repro/core/fault.py", "/r/src/repro/net/fabric.py")) == "net"
    # harness-only and uncatalogued repro frames fall into `other`
    assert tracing.layer_of_stack(_stack(run)) == tracing.OTHER
    assert tracing.layer_of_stack(_stack(
        run, "/r/src/repro/bench/runner.py")) == tracing.OTHER
    assert tracing.layer_of_stack(None) == tracing.OTHER


def test_sampler_shares_sum_to_one():
    with tracing.Sampler() as sampler:
        deadline = time.process_time() + 0.05
        while time.process_time() < deadline:
            sum(range(1000))
    shares = sampler.shares()
    assert set(shares) == set(catalogue.PACKAGES) | {tracing.OTHER}
    assert sum(shares.values()) == pytest.approx(1.0)
    assert shares[tracing.OTHER] == pytest.approx(1.0)  # no repro frame here
    assert sampler.samples > 0


def test_spans_record_parents_and_durations():
    spans = tracing.Spans()
    with spans.span("outer"):
        with spans.span("inner"):
            time.sleep(0.01)
        with spans.span("inner"):
            pass
    outer, first, second = spans.records
    assert (outer["parent"], first["parent"], second["parent"]) == (None, 0, 0)
    by_name = spans.by_name()
    assert set(by_name) == {"outer", "inner"}
    assert len(spans.durations("inner")) == 2 and spans.durations("none") == []
    assert by_name["inner"][0] >= 0.01
    assert by_name["outer"][0] >= sum(by_name["inner"])


# ---- result schema and BENCHMARK.json ---------------------------------------


def _good(trace):
    wanted = catalogue.PER_LAYER if trace else catalogue.E2E
    return {"correct": True, "attempted": 10, "failed": 0,
            "metrics": {m.name: {"value": 1.5, "unit": m.unit}
                        for m in wanted}}


@pytest.mark.parametrize("trace", [False, True])
def test_validator_accepts_a_well_formed_result(trace):
    assert catalogue.validate_result(_good(trace), trace) == []
    # and the document survives a JSON round trip unchanged
    assert json.loads(json.dumps(_good(trace))) == _good(trace)


@pytest.mark.parametrize("mutate, needle", [
    (lambda d: d.pop("failed"), "keys"),
    (lambda d: d.update(extra=1), "keys"),
    (lambda d: d.update(attempted=0), "attempted < 1"),
    (lambda d: d.update(attempted=1.0), "whole number"),
    (lambda d: d.update(correct="yes"), "boolean"),
    (lambda d: d["metrics"].pop("wall_s"), "missing ['wall_s']"),
    (lambda d: d["metrics"].update(bogus={"value": 1, "unit": "s"}), "extra"),
    (lambda d: d["metrics"]["wall_s"].update(unit="ms"), "bad entry"),
    (lambda d: d["metrics"]["wall_s"].update(value=0.0), "is 0"),
    (lambda d: d["metrics"]["wall_s"].update(value=True), "not a number"),
    (lambda d: d["metrics"]["wall_s"].update(value=math.nan), "not finite"),
])
def test_validator_names_each_defect(mutate, needle):
    doc = _good(False)
    mutate(doc)
    problems = catalogue.validate_result(doc, False)
    assert any(needle in p for p in problems), problems


def test_zero_is_allowed_for_per_layer_metrics():
    doc = _good(True)
    doc["metrics"]["serve_p99_us"]["value"] = 0.0   # not applicable here
    assert catalogue.validate_result(doc, True) == []


def test_benchmark_json_matches_the_catalogue_and_the_contract():
    doc = json.loads((REPO / "BENCHMARK.json").read_text())
    assert doc == catalogue.benchmark_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = ([w["name"] for w in doc["workloads"]]
             + [m["name"] for m in doc["end_to_end"] + doc["per_layer"]])
    assert len(names) == len(set(names))
    assert all(name_re.match(n) for n in names)
    assert len(doc["workloads"]) == 4
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               and "\n" not in w["why"] for w in doc["workloads"])
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and unit_re.match(m["unit"])
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and unit_re.match(m["unit"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert doc["paths"] == ["benchmarks/dexbench"]
    assert 1 <= doc["run_seconds"] <= 60
    # the issue's ledger: 15 user-visible metrics; its 112 layer metrics plus
    # host.other_share and host.wall_median_s
    assert len(catalogue.GATED) == 15
    assert sum(m.tier == "layer" for m in catalogue.METRICS) == 114


def test_readme_carries_the_whole_catalogue():
    readme = (HERE / "README.md").read_text()
    for table in catalogue.markdown_tables().split("\n\n"):
        assert table in readme
    for name, _ in catalogue.WORKLOADS:
        assert f"**`{name}`**" in readme


def test_no_result_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files the command must fail without printing a result."""
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "dexbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".aa-*"))
    done = subprocess.run(
        [sys.executable, "benchmarks/dexbench/run.py", "--workload",
         "pingpong", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
    assert "no program to measure" in done.stderr


# ---- run.py: folding the rounds of a timed run ---------------------------------


def _round(parts, setup_s, rss, digest_="d"):
    walls = [sum(ts) for ts in zip(*parts.values())]
    return {"host": {"setup_s": setup_s, "import_s": 0.5, "peak_rss_mb": rss},
            "sim": {"sim_elapsed_us": 7.0}, "samples": {}, "outputs": {},
            "sim_digest": digest_, "walls": walls, "cpus": walls,
            "parts": parts, "gc_collections": 2, "attempted": 10,
            "failed": 0, "refused": 1, "violations": []}


def test_rounds_pool_times_and_sum_counts():
    rounds = [_round({"a": [1.0, 1.2], "b": [2.5, 2.0]}, 3.0, 100.0),
              _round({"a": [1.1, 0.9], "b": [2.2, 2.4]}, 5.0, 104.0),
              _round({"a": [1.3, 1.3], "b": [2.1, 2.6]}, 4.0, 101.0)]
    doc = run.merge_rounds(rounds)
    host = doc["host"]
    assert host["wall_s"] == pytest.approx(0.9 + 2.0)   # floors of different rounds
    assert (host["setup_s"], host["peak_rss_mb"]) == (4.0, 101.0)
    assert doc["setup_samples"] == [3.0, 5.0, 4.0]
    assert len(doc["walls"]) == 6 and doc["parts"]["a"][2:4] == [1.1, 0.9]
    assert (doc["attempted"], doc["failed"], doc["refused"]) == (30, 0, 3)
    assert host["host.gc_collections"] == 1.0
    assert doc["violations"] == []


def test_rounds_must_agree_on_the_sim_clock():
    rounds = [_round({"a": [1.0]}, 3.0, 100.0),
              _round({"a": [1.0]}, 3.0, 100.0, digest_="other")]
    doc = run.merge_rounds(rounds)
    assert doc["failed"] == 1
    assert doc["violations"] == ["sim_digest differs between rounds"]


# ---- compare.py verdicts ------------------------------------------------------


def test_verdicts():
    wall = catalogue.BY_NAME["wall_s"]            # host, lower, 25 %
    sim = catalogue.BY_NAME["sim_elapsed_us"]     # sim, lower
    goodput = catalogue.BY_NAME["serve_goodput_rps"]   # sim, higher, 1 %
    paper = catalogue.BY_NAME["paper_err_pct"]    # +0.5 points absolute
    knee = catalogue.BY_NAME["serve_sustained_load_x"]  # must not drop
    quiet, noisy = 0.02, wall.bound + 0.05
    assert compare.verdict(wall, 1.0, 1.05, quiet) == "within"
    assert compare.verdict(wall, 1.0, 0.95, quiet) == "within"
    assert compare.verdict(wall, 1.0, 0.70, quiet) == "better"
    assert compare.verdict(wall, 1.0, 1.3, quiet) == "worse"
    assert compare.verdict(wall, 1.0, 1.3, noisy) == "unresolved"
    assert compare.verdict(sim, 100.0, 99.999, quiet) == "better"
    assert compare.verdict(sim, 100.0, 100.0, noisy) == "within"
    assert compare.verdict(sim, 100.0, 100.0 * (1 + sim.bound) + 1, 0) == "worse"
    assert compare.verdict(goodput, 1000.0, 995.0, 0) == "within"
    assert compare.verdict(goodput, 1000.0, 980.0, 0) == "worse"
    assert compare.verdict(paper, 5.9, 6.3, 0) == "within"
    assert compare.verdict(paper, 5.9, 6.5, 0) == "worse"
    assert compare.verdict(knee, 1.0, 1.0, 0) == "within"
    assert compare.verdict(knee, 1.0, 0.75, 0) == "worse"
    assert compare.verdict(knee, 1.0, 1.25, 0) == "better"
