"""The apps' input plane: every generated input and the expected answer
derived from it is built once per process per spec
(``repro.apps.workloads.memoised``) and shared read-only.

Three things are pinned here: the R-MAT generator still produces the
graphs its previous implementation did (kept below as the oracle), a warm
run is indistinguishable from a cold one on the sim clock and in every
versioned artifact, and what the plane hands out cannot be written to.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.apps import APP_NAMES, get_app, kmeans, string_match, workloads
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
# the memo: invisible on the sim clock, read-only, bounded
# ---------------------------------------------------------------------------


def same_output(a, b):
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("app", APP_NAMES)
def test_cold_and_warm_runs_are_the_same_run(app):
    run = get_app(app).run
    cold = run(num_nodes=2, variant="optimized", **TINY[app])
    held = list(workloads._memo.values())
    assert held, f"{app} built its input outside the plane"
    for result in (run(num_nodes=2, variant="optimized", **TINY[app]),
                   run(num_nodes=2, variant="optimized", **TINY[app])):
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
    get_app(app).run(num_nodes=1, variant="unmodified", **TINY[app])
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
                                      size["max_iters"], 11)
    run = dict(num_nodes=1, variant="unmodified", **size)
    assert kmeans.run(**run).correct is True
    monkeypatch.setattr(kmeans, "problem",
                        lambda *spec: (points, expected + 1e-3))
    assert kmeans.run(**run).correct is False


def test_keys_given_as_a_list_are_keyed_as_the_tuple_they_spell():
    keys = list(workloads.DEFAULT_KEYS)
    as_list = workloads.text_corpus(4096, keys, seed=3)
    assert workloads.text_corpus(4096, tuple(keys), seed=3) is as_list
    assert workloads.text_corpus(4096, seed=3) is as_list  # the default
    result = string_match.run(num_nodes=1, variant="unmodified", keys=keys,
                              **TINY["GRP"])
    assert result.correct is True
    assert result.output == list(string_match.reference(
        keys=keys, seed=7, **TINY["GRP"]))


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
