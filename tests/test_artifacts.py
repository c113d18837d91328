"""Every saved artifact a CLI reads back fails precisely on a bad file: the
loader raises one ``ValueError`` naming the file and what is wrong with it,
and the CLI prints that line and exits 2 — no traceback, whatever the
damage (cut short, somebody else's format, a field gone)."""

import json

import pytest

from repro.obs.__main__ import main as obs_main
from repro.obs.manifest import MANIFEST_FORMAT, load_manifest
from repro.obs.ring import SNAPSHOT_FORMAT, load_snapshot
from repro.obs.tracing import SPANS_FORMAT, load_spans
from repro.serve.__main__ import main as serve_main
from repro.serve.report import SCHEMA, load_report
from repro.tools.__main__ import main as tools_main
from repro.tools.tracer import FaultTracer

SPAN = {"name": "fault", "span_id": 1, "trace_id": 1, "parent_id": None,
        "node": 0, "tid": 3, "start_us": 0.0, "end_us": 2.5, "attrs": {}}
TENANT = {
    "workload": "kmn", "curve": "constant", "policy": "reject",
    "requests": 4, "goodput_rps": 10.0, "slo": {"attainment": 1.0},
    "counts": {"completed": 4, "rejected": 0, "shed": 0, "throttled": 0,
               "failed": 0},
    "latency_us": {"p50": 1.0, "p99": 2.0, "p999": 2.0},
}
CSV_HEADER = "time_us,node,tid,fault_type,site,addr,tag,src_node"
CSV_ROWS = ["1.5,0,3,write,kmeans.py:10,4096,centroids,-1",
            "2.5,1,4,read,kmeans.py:12,8192,points,0"]


def as_json(doc):
    return json.dumps(doc, indent=1)


def without(doc, *path):
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    del node[path[-1]]
    return doc


MANIFEST = {"format": MANIFEST_FORMAT, "label": "m",
            "result": {"sim_time_us": 10.0, "correct": True},
            "quantiles": {"fault_latency_us": {"overall": {"p99": 4.0}}}}
SPAN_LOG = {"format": SPANS_FORMAT, "dropped": 0, "max_spans": 8,
            "spans": [SPAN]}
SNAPSHOT = {"format": SNAPSHOT_FORMAT, "reason": "test", "spans": [SPAN],
            "traceEvents": [], "otherData": {}}
REPORT = {"schema": SCHEMA, "seed": 42, "num_nodes": 4, "directory": "origin",
          "duration_us": 1000.0, "tenants": {"kmn": TENANT}}

#: kind -> (whole text, text of another artifact, text with a field gone,
#:          what the complaint says is missing, the library loader,
#:          the CLI reading it — None for the library-only snapshot)
ARTIFACTS = {
    "manifest": (
        as_json(MANIFEST), as_json(SPAN_LOG), None, None, load_manifest,
        lambda path, tmp: obs_main(["diff", path, path, "--check"])),
    "spans-report": (
        as_json(SPAN_LOG), as_json(SNAPSHOT),
        as_json(without(SPAN_LOG, "spans", 0, "span_id")), "span_id",
        load_spans, lambda path, tmp: obs_main(["report", "--input", path])),
    "spans-export": (
        as_json(SPAN_LOG), as_json(MANIFEST),
        as_json(without(SPAN_LOG, "spans", 0, "start_us")), "start_us",
        load_spans,
        lambda path, tmp: obs_main(["export", "--input", path,
                                    "--out", str(tmp / "trace.json")])),
    "snapshot": (
        as_json(SNAPSHOT), as_json(SPAN_LOG),
        as_json(without(SNAPSHOT, "spans", 0, "trace_id")), "trace_id",
        load_snapshot, None),
    "serve-report": (
        as_json(REPORT), as_json(MANIFEST), as_json(without(REPORT, "seed")),
        "seed", load_report, lambda path, tmp: serve_main(["report", path])),
    "fault-trace": (
        "\n".join([CSV_HEADER, *CSV_ROWS]) + "\n", as_json(MANIFEST),
        "\n".join(",".join(cell for i, cell in enumerate(line.split(","))
                           if i != 2)
                  for line in [CSV_HEADER, *CSV_ROWS]) + "\n",
        "tid", FaultTracer.load_csv, lambda path, tmp: tools_main([path])),
}


def cut_short(text):
    return text[: len(text) - 12]


# a manifest lacking a headline metric loads; it is `diff --check` that
# refuses it (tests/test_obs_diff.py)
@pytest.mark.parametrize("kind, damage", [
    (kind, damage) for kind, artifact in ARTIFACTS.items()
    for damage in ("truncated", "wrong format", "missing field")
    if damage != "missing field" or artifact[2] is not None])
def test_a_damaged_artifact_is_one_line_and_exit_2(kind, damage, tmp_path,
                                                   capsys):
    whole, foreign, holed, missing, load, cli = ARTIFACTS[kind]
    path = tmp_path / f"{kind}.dat"

    path.write_text(whole)
    load(str(path))  # the undamaged file is fine ...
    if cli is not None:
        assert cli(str(path), tmp_path) == 0  # ... for the CLI too
    capsys.readouterr()

    path.write_text({"truncated": cut_short(whole), "wrong format": foreign,
                     "missing field": holed}[damage])
    with pytest.raises(ValueError) as caught:
        load(str(path))
    complaint = str(caught.value)
    assert str(path) in complaint and "\n" not in complaint
    if damage == "missing field":
        assert missing in complaint
    if cli is None:
        return
    try:
        status = cli(str(path), tmp_path)
    except SystemExit as stop:
        status = stop.code
    streams = capsys.readouterr()
    assert status == 2
    assert streams.err == f"error: {complaint}\n" and "Traceback" not in streams.out
