"""``python -m repro.obs`` owns the cluster it inspects: every subcommand
builds its ``DexCluster`` (``RunSpec.cluster()``, recorded by conftest's
``built``), hands it to the workload, and reads the tracer / lens / scope
off that object — no module-global registry recovers them, so nothing
outlives the cluster either."""

import gc
import json
import weakref

import pytest

from repro import DexCluster, SimParams
from repro.obs import __main__ as cli
from repro.obs.lens import TopView
from repro.obs.tracing import load_spans

KMN = ["--app", "KMN", "--nodes", "2",
       "--app-arg", "n_points=4000", "--app-arg", "max_iters=1"]
PAGEFAULT = ["--app", "pagefault", "--app-arg", "duration_us=1500"]
POINTS = pytest.mark.parametrize(
    "point", [KMN, PAGEFAULT], ids=["kmn2", "pagefault"])


def _spans_line(cluster):
    return f": {len(cluster.tracer.spans)} spans"


@POINTS
def test_run_saves_its_own_clusters_spans(point, built, tmp_path, capsys):
    out = tmp_path / "spans.json"
    assert cli.main(["run", *point, "--out", str(out)]) == 0
    (cluster,) = built
    spans, meta = load_spans(str(out))
    assert len(spans) == len(cluster.tracer.spans) > 0
    assert meta["dropped"] == 0
    assert _spans_line(cluster) in capsys.readouterr().out


@POINTS
def test_report_reads_its_own_clusters_spans(point, built, capsys):
    assert cli.main(["report", *point, "--limit", "5"]) == 0
    (cluster,) = built
    text = capsys.readouterr().out
    assert _spans_line(cluster) in text
    assert "per-phase time attribution" in text


@POINTS
def test_export_scope_merges_its_own_clusters_series(
        point, built, tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert cli.main(["export", *point, "--scope", "--out", str(out)]) == 0
    (cluster,) = built
    counters = cluster.scope.counter_events()
    assert counters
    text = capsys.readouterr().out
    assert f"merged {len(counters)} DexScope counter-track events" in text
    events = json.loads(out.read_text())["traceEvents"]
    assert sum(1 for e in events if e["ph"] == "C") == len(
        [e for e in counters if e["ph"] == "C"])


@POINTS
def test_top_adds_its_view_to_its_own_cluster(point, built, capsys):
    assert cli.main(["top", *point, "--interval-us", "500"]) == 0
    (cluster,) = built
    (view,) = [o for o in cluster.engine.hooks.observers if isinstance(o, TopView)]
    assert view.feed is cluster.lens.feed
    text = capsys.readouterr().out
    assert view.frames >= 2 and text.count("dex top @") == view.frames
    assert _spans_line(cluster) in text


def test_manifest_twice_in_one_process_is_byte_identical(
        built, tmp_path, capsys):
    """Nothing global to reset between invocations: the second manifest
    comes from the second cluster and matches the first byte for byte."""
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["manifest", *KMN, "--out", str(a)]) == 0
    assert cli.main(["manifest", *KMN, "--out", str(b)]) == 0
    first, second = built
    assert first is not second
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(b.read_text())
    assert doc["format"] == "dex-run-v1"
    assert doc["result"]["sim_time_us"] == second.engine.now
    assert doc["result"]["events_dispatched"] == second.engine.events_dispatched
    assert len(doc["series"]) == len(second.scope.series) > 0
    assert doc["phases"]  # the lens section came from second.lens


def test_manifest_captures_the_micro(built, tmp_path):
    """The micro is an app like any other: its manifest names it, its
    2-node rack, its final sim time and its own verdict."""
    out = tmp_path / "pf.json"
    assert cli.main(["manifest", *PAGEFAULT, "--out", str(out)]) == 0
    (cluster,) = built
    doc = json.loads(out.read_text())
    assert (doc["app"], doc["nodes"], doc["threads"]) == ("pagefault", 2, 2)
    assert doc["result"]["sim_time_us"] == cluster.engine.now
    assert doc["result"]["correct"] is True


def test_dropped_instrumented_clusters_are_collectable(monkeypatch):
    """Once its builder drops it, nothing may still hold an instrumented
    cluster: a process-global list of tracers pins each one's engine,
    cluster and span log (~66 MiB per traced 20 ms micro run)."""
    # conftest's invariant fixture records (and so pins) every cluster
    monkeypatch.undo()

    def main(ctx):
        yield from ctx.migrate(1)
        yield from ctx.write_i64(0x1000_0000, 1)
        yield from ctx.migrate_back()

    refs = []
    for _ in range(3):
        cluster = DexCluster(
            num_nodes=2, params=SimParams(trace="1", lens="1", scope="1"))
        cluster.simulate(main)
        assert cluster.tracer.spans and cluster.scope.samples
        refs += [weakref.ref(obj) for obj in
                 (cluster, cluster.tracer, cluster.lens, cluster.scope)]
        del cluster
    gc.collect()
    assert [ref() for ref in refs if ref() is not None] == []
