"""The apps' input plane: every generated input and the expected answer
derived from it is built once per process per spec
(``repro.apps.workloads.memoised``) and shared read-only.

Four things are pinned here: the R-MAT generator still produces the
graphs its previous implementation did (kept below as the oracle) and the
block-streamed generators and references the bytes their whole-array
forms did, building one costs scratch of the order of what it returns, a
warm run is indistinguishable from a cold one on the sim clock and in
every versioned artifact, and what the plane hands out cannot be written
to.
"""

import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.apps import (APP_NAMES, RunSpec, blackscholes, kmeans, string_match,
                        workloads)
from repro.obs import __main__ as obs_cli
from test_apps import TINY
from test_serve import kmn_spec, run_report, scan_burst_spec

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def cold_memo():
    workloads._memo.clear()
    yield
    assert len(workloads._memo) <= workloads.MEMO_BOUND


# ---------------------------------------------------------------------------
# R-MAT: the generator before the input plane, as the oracle
# ---------------------------------------------------------------------------


def rmat_graph_oracle(n_vertices, n_edges, a=0.57, b=0.19, c=0.19, seed=17):
    if n_vertices & (n_vertices - 1):
        n_vertices = 1 << (n_vertices - 1).bit_length()
    levels = n_vertices.bit_length() - 1
    rng = np.random.default_rng(seed)
    probs = rng.random((n_edges, levels))
    src = np.zeros(n_edges, dtype=np.int64)
    dst = np.zeros(n_edges, dtype=np.int64)
    p_a, p_ab, p_abc = a, a + b, a + b + c
    for level in range(levels):
        bit = 1 << (levels - 1 - level)
        p = probs[:, level]
        in_b = (p >= p_a) & (p < p_ab)
        in_c = (p >= p_ab) & (p < p_abc)
        in_d = p >= p_abc
        dst[in_b | in_d] += bit
        src[in_c | in_d] += bit
    all_src = np.concatenate([src, dst])
    all_dst = np.concatenate([dst, src])
    order = np.lexsort((all_dst, all_src))
    all_src, all_dst = all_src[order], all_dst[order]
    keep = np.ones(len(all_src), dtype=bool)
    keep[1:] = (all_src[1:] != all_src[:-1]) | (all_dst[1:] != all_dst[:-1])
    all_src, all_dst = all_src[keep], all_dst[keep]
    indptr = np.zeros(n_vertices + 1, dtype=np.int64)
    np.add.at(indptr, all_src + 1, 1)
    indptr = np.cumsum(indptr)
    return indptr, all_dst.astype(np.int64)


def assert_same_graph(got, want):
    for mine, theirs in zip(got, want):
        assert mine.dtype == theirs.dtype
        assert np.array_equal(mine, theirs)


@pytest.mark.parametrize("n_vertices", [1, 2, 3, 64, 100, 1000, 1024, 5000])
@pytest.mark.parametrize("n_edges", [0, 1, 37, 2_000, 20_000])
@pytest.mark.parametrize("seed", [0, 17, 20200708])
def test_rmat_graph_equals_the_oracle(n_vertices, n_edges, seed):
    assert_same_graph(workloads.rmat_graph(n_vertices, n_edges, seed=seed),
                      rmat_graph_oracle(n_vertices, n_edges, seed=seed))


@pytest.mark.parametrize("n_vertices, n_edges",
                         [(4_096, 16_000), (32_768, 500_000)])
def test_rmat_graph_equals_the_oracle_at_dexbench_sizes(n_vertices, n_edges):
    assert_same_graph(workloads.rmat_graph(n_vertices, n_edges, seed=42),
                      rmat_graph_oracle(n_vertices, n_edges, seed=42))


def test_rmat_graph_equals_the_oracle_off_the_graph500_mix():
    mix = dict(a=0.45, b=0.15, c=0.25, seed=5)
    assert_same_graph(workloads.rmat_graph(512, 4_000, **mix),
                      rmat_graph_oracle(512, 4_000, **mix))
    # the thresholds must rise for "thresholds cleared" to be the quadrant
    with pytest.raises(ValueError, match="probabilities"):
        workloads.rmat_graph(512, 4_000, b=-0.1)


# ---------------------------------------------------------------------------
# text_corpus returns what it was asked for
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("size", range(1, 33))
def test_text_corpus_is_exactly_size_bytes(size):
    # sizes 1..15 used to come back 10 bytes long: a key planted across
    # the end grew the buffer
    assert len(workloads.text_corpus(size)) == size
    assert len(workloads.text_corpus(size, keys=(b"x" * 40,))) == size


def test_text_corpus_64k_is_the_corpus_it_always_was():
    # sha256 of text_corpus(64 KiB) taken at the commit before the fix
    for kwargs, sha in [
        ({}, "35ea0c57ada9f3c669e454463b9bd502f07a660f5f54b6f202e5e8776b31f4c4"),
        ({"seed": 1},
         "58f679315abe79a9447b8e8fca6bbf09930c0a47fdb8409dbe5eb029a786855a"),
    ]:
        text = workloads.text_corpus(64 * 1024, **kwargs)
        assert hashlib.sha256(text).hexdigest() == sha


# ---------------------------------------------------------------------------
# block streaming: the same bytes, scratch of the order of the output
# ---------------------------------------------------------------------------


def sha256(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def pinned(*cases):
    """(spec, sha256 of the expected answer at the commit before the
    references went blockwise), on and off the block boundaries."""
    return pytest.mark.parametrize(
        "spec, sha", cases, ids=["-".join(map(str, spec)) for spec, _ in cases])


@pinned(
    ((80_000, 16, 2, 11),  # bench "small" KMN
     "f447c3996c25f0087f42465d4cf405cb4f9afe0af3cf197845740084707c8513"),
    ((10_000, 8, 3, 42),
     "a831e0b913a281bf9becf09e7e66e90993d618a76e222356dae10aefadcc3a6e"),
    ((5_000, 4, 2, 20200708),
     "70afa17b0fdcf0dd9eb213827d81871d11f1d64a9b1c22f9ebc59308c73e5848"),
)
def test_kmn_reference_centroids_are_the_ones_they_always_were(spec, sha):
    assert sha256(kmeans.problem(*spec)[1]) == sha


@pinned(
    ((160_000, 13),  # DexBench's size
     "fcc1b03789496cca091511cbb1e9103eb6be885996c39f85c0ccef69af0f7141"),
    ((20_000, 13),
     "e036b8439bd84079105b952d9c309e35876bd5c39babf90293356cbd66baac74"),
    ((2 * blackscholes.CHUNK + 17, 42),
     "c9f3814631c0c3839e9b8be4536377bfd99b4084640f488f3e6e03b76e26efbf"),
)
def test_blk_reference_prices_are_the_ones_they_always_were(spec, sha):
    # as exact as scaled_apps' sim_digest, which holds BLK's output: priced
    # with scipy.special.erf (math.erf differs in the last bit on a fifth
    # of all arguments) by this platform's numpy log and exp
    assert sha256(blackscholes.reference(*spec)) == sha


def test_text_corpus_is_the_corpus_it_always_was_off_the_block_boundary():
    size = workloads.TEXT_BLOCK_BYTES + 34_465
    text = workloads.text_corpus(size, seed=3)
    assert len(text) == size == 100_001
    assert hashlib.sha256(text).hexdigest() == \
        "cafc6f2a183564f58f982c1b2368fd64a4cc9d570c85f3113a2f4a3a3ba92ecf"


def returned_bytes(value):
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, bytes):
        return len(value)
    return sum(map(returned_bytes, value))


@pytest.mark.parametrize("build", [
    lambda: workloads.rmat_graph(32_768, 500_000),
    lambda: kmeans.reference(
        workloads.clustered_points.__wrapped__(80_000, 16, 3, seed=11), 16, 2)[0],
    lambda: workloads.text_corpus(2 * 1024 * 1024),
    lambda: blackscholes.reference(160_000),
], ids=["rmat_graph", "kmeans.reference", "text_corpus",
        "blackscholes.reference"])
def test_building_an_input_costs_scratch_of_the_order_of_its_size(build):
    """A worker's heap never shrinks below its largest transient, so a
    generator whose scratch is many times its output sets the process's
    resident size for life (DexBench ``peak_rss_mb``).  Cold build at
    DexBench's sizes: peak traced memory within 4x the returned bytes plus
    16 MiB of block scratch (R-MAT once drew 120 MB for an 8 MB graph)."""
    tracemalloc.start()
    try:
        value = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * returned_bytes(value) + 16 * 2**20


def test_every_third_party_import_is_a_declared_dependency():
    # BLK imported scipy for years while pyproject declared numpy alone;
    # now scipy is only the test oracle of BLK's erf kernel
    pyproject = (REPO / "pyproject.toml").read_text()

    def declared(key):
        listed = re.search(rf'^{key} = \[(.*)\]$', pyproject, re.M).group(1)
        return set(re.findall(r'"(\w+)', listed))

    imported = set()
    for path in (REPO / "src").rglob("*.py"):
        imported |= set(re.findall(
            r"^\s*(?:from|import) (numpy|scipy)\b", path.read_text(), re.M))
    assert imported == declared("dependencies") == {"numpy"}
    assert "scipy" in declared("test")


def test_a_blk_run_and_a_blk_serve_run_load_no_scipy():
    script = "\n".join((
        "import sys",
        "from repro.apps import RunSpec",
        "from repro.serve import ArrivalCurve, ServeManager, TenantSpec",
        f"assert RunSpec('BLK', nodes=2, overrides={TINY['BLK']!r}).run()"
        ".correct",
        "ServeManager([TenantSpec('blk', 'blk',",
        "    ArrivalCurve('constant', rate=4_000, requests=40), nodes=(0, 1),",
        "    items=4_096, request_items=256, seed=3)], num_nodes=2).run()",
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))",
    ))
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


# ---------------------------------------------------------------------------
# the memo: invisible on the sim clock, read-only, bounded
# ---------------------------------------------------------------------------


def same_output(a, b):
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("app", APP_NAMES)
def test_cold_and_warm_runs_are_the_same_run(app):
    spec = RunSpec(app, "optimized", 2, overrides=TINY[app])
    cold = spec.run()
    held = list(workloads._memo.values())
    assert held, f"{app} built its input outside the plane"
    for result in (spec.run(), spec.run()):
        assert result.correct is True and cold.correct is True
        assert result.elapsed_us == cold.elapsed_us
        assert result.stats.total_faults == cold.stats.total_faults
        assert same_output(result.output, cold.output)
    # warm runs built nothing: the very objects of the cold run are held
    assert all(x is y for x, y in zip(held, workloads._memo.values()))
    assert len(held) == len(workloads._memo)


def arrays_of(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from arrays_of(item)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from arrays_of(getattr(value, f.name))


@pytest.mark.parametrize("app", APP_NAMES)
def test_what_the_plane_hands_out_refuses_writes(app):
    RunSpec(app, "unmodified", overrides=TINY[app]).run()
    for value in workloads._memo.values():
        assert not isinstance(value, (list, bytearray))
        for array in arrays_of(value):
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = 0
    if app == "BLK":
        batch = workloads.option_batch(TINY[app]["n_options"])
        with pytest.raises(dataclasses.FrozenInstanceError):
            batch.spot = batch.strike


def test_a_warm_run_still_checks_its_own_output(monkeypatch):
    # only the expected value is reused; run() compares its output with it
    size = TINY["KMN"]
    points, expected = kmeans.problem(size["n_points"], size["k"],
                                      size["max_iters"], kmeans.INPUT_SEED)
    spec = RunSpec("KMN", "unmodified", overrides=size)
    assert spec.run().correct is True
    monkeypatch.setattr(kmeans, "problem",
                        lambda *spec: (points, expected + 1e-3))
    assert spec.run().correct is False


def test_keys_given_as_a_list_are_keyed_as_the_tuple_they_spell():
    keys = list(workloads.DEFAULT_KEYS)
    as_list = workloads.text_corpus(4096, keys, seed=3)
    assert workloads.text_corpus(4096, tuple(keys), seed=3) is as_list
    assert workloads.text_corpus(4096, seed=3) is as_list  # the default
    result = RunSpec("GRP", "unmodified",
                     overrides=dict(keys=keys, **TINY["GRP"])).run()
    assert result.correct is True
    assert result.output == list(string_match.reference(
        keys=keys, seed=string_match.INPUT_SEED, **TINY["GRP"]))


def test_the_memo_holds_at_most_its_bound_and_drops_the_oldest():
    first = workloads.clustered_points(64, 2, seed=0)
    for seed in range(1, workloads.MEMO_BOUND):
        workloads.clustered_points(64, 2, seed=seed)
    assert len(workloads._memo) == workloads.MEMO_BOUND
    assert workloads.clustered_points(64, 2, seed=0) is first  # now newest
    workloads.clustered_points(64, 2, seed=workloads.MEMO_BOUND)
    assert len(workloads._memo) == workloads.MEMO_BOUND
    assert workloads.clustered_points(64, 2, seed=0) is first
    second = workloads.clustered_points(64, 2, seed=1)  # was dropped
    assert np.array_equal(second, workloads.clustered_points.__wrapped__(
        64, 2, seed=1))
    assert len(workloads._memo) == workloads.MEMO_BOUND


# ---------------------------------------------------------------------------
# versioned artifacts do not see the memo
# ---------------------------------------------------------------------------


def test_warm_kmn4_manifest_is_the_cold_process_baseline(tmp_path, capsys):
    # benchmarks/baselines/dex-run-kmn4.json came from a fresh process
    # (CI's diff-guard invocation); here the input and the expected
    # centroids are already in the memo when the run starts
    spec = (80_000, 16, 2, 11)  # bench "small" KMN, kmeans' default seed
    warm = kmeans.problem(*spec)
    held = len(workloads._memo)
    out = tmp_path / "dex-run.json"
    assert obs_cli.main(["manifest", "--app", "KMN", "--variant", "initial",
                         "--nodes", "4", "--out", str(out)]) == 0
    assert "correct=True" in capsys.readouterr().out
    assert kmeans.problem(*spec) is warm and len(workloads._memo) == held
    baseline = REPO / "benchmarks" / "baselines" / "dex-run-kmn4.json"
    assert out.read_bytes() == baseline.read_bytes()


def test_two_tenant_serve_report_is_the_same_cold_and_warm():
    specs = [kmn_spec(), scan_burst_spec()]
    cold = json.dumps(run_report(specs), sort_keys=True)
    assert workloads._memo
    warm = json.dumps(run_report(specs), sort_keys=True)
    assert warm == cold
    assert json.loads(cold)["schema"] == "dex-serve-report/v1"
