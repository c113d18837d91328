"""Differential attribution unit tests: ranked deltas, thresholded
verdicts, phase/shard attribution, report rendering, the trajectory
trend check, and the ``obs diff`` CLI exit codes — all on hand-built
manifests, no simulation."""

import pytest

from repro.obs.__main__ import main
from repro.obs.diff import (
    MetricDelta,
    diff_manifests,
    format_report,
)
from repro.obs.manifest import MANIFEST_FORMAT, write_manifest


def _manifest(label, sim_time, *, counters=None, phases=None,
              directory=None, p99=None, by_mode=None, correct=True):
    doc = {
        "format": MANIFEST_FORMAT,
        "label": label,
        "result": {"sim_time_us": sim_time, "correct": correct},
        "counters": counters or {},
        "directory_requests": directory or {},
        "quantiles": {},
        "phases": phases or {},
        "series": {},
    }
    if p99 is not None or by_mode is not None:
        doc["quantiles"]["fault_latency_us"] = {
            "overall": {"p99": p99} if p99 is not None else {},
            "by_mode": by_mode or {},
        }
    return doc


# -- MetricDelta --------------------------------------------------------------


def test_metric_delta_relative_change():
    m = MetricDelta("x", 100.0, 150.0, "counter")
    assert m.delta == 50.0 and m.rel == 0.5


def test_metric_delta_new_from_zero_is_infinite():
    m = MetricDelta("x", 0.0, 5.0, "counter")
    assert m.rel == float("inf")
    assert MetricDelta("y", 0.0, 0.0, "counter").rel == 0.0


# -- diff_manifests -----------------------------------------------------------


def test_identical_manifests_no_regression():
    a = _manifest("A", 100.0, counters={"faults_read": 10}, p99=40.0)
    report = diff_manifests(a, a)
    assert not report.regressed and not report.unchecked
    assert report.attribution().startswith("ok:")
    assert all(m.delta == 0.0 for m in report.deltas)


def test_deltas_ranked_by_relative_change():
    a = _manifest("A", 100.0,
                  counters={"faults_read": 10, "net_messages_sent": 100,
                            "retries": 0})
    b = _manifest("B", 150.0,
                  counters={"faults_read": 30, "net_messages_sent": 101,
                            "retries": 5})
    report = diff_manifests(a, b)
    names = [m.name for m in report.deltas]
    # new-from-zero (inf) first, then +200%, then +50%, then +1%
    assert names == ["retries", "faults_read", "sim_time_us",
                     "net_messages_sent"]
    # only result-kind metrics flip the verdict
    assert [m.name for m in report.regressions] == ["sim_time_us"]


def test_threshold_is_a_strict_bound():
    a = _manifest("A", 100.0)
    assert not diff_manifests(a, _manifest("B", 109.0)).regressed
    assert diff_manifests(a, _manifest("B", 112.0)).regressed
    # a custom threshold moves the bar
    assert not diff_manifests(
        a, _manifest("B", 140.0), threshold=0.50
    ).regressed


def test_improvement_is_never_a_regression():
    report = diff_manifests(_manifest("A", 100.0), _manifest("B", 50.0))
    assert not report.regressed


def test_headline_p99_regression():
    a = _manifest("A", 100.0, p99=10.0)
    b = _manifest("B", 100.0, p99=25.0)
    report = diff_manifests(a, b)
    assert [m.name for m in report.regressions] == ["fault_p99_us"]


def test_per_mode_quantiles_compared_but_not_headline():
    by_a = {"read": {"p50": 1.0, "p99": 4.0}}
    by_b = {"read": {"p50": 3.0, "p99": 40.0}}
    report = diff_manifests(
        _manifest("A", 100.0, by_mode=by_a),
        _manifest("B", 100.0, by_mode=by_b),
    )
    names = {m.name for m in report.deltas}
    assert {"fault_read_p50_us", "fault_read_p99_us"} <= names
    assert not report.regressed  # quantile kind never flips the verdict


def test_phase_attribution_picks_dominant_growth():
    phases_a = {"blocked": {"sum": 100.0}, "wire": {"sum": 50.0},
                "compute": {"sum": 10.0}}
    phases_b = {"blocked": {"sum": 400.0}, "wire": {"sum": 150.0},
                "compute": {"sum": 5.0}}  # compute shrank: not growth
    report = diff_manifests(
        _manifest("A", 100.0, phases=phases_a),
        _manifest("B", 150.0, phases=phases_b),
    )
    assert report.dominant_phase == "blocked"
    assert report.dominant_delta_us == 300.0
    assert report.dominant_share == pytest.approx(0.75)
    assert "dominated by blocked (+300 us, 75% of growth)" \
        in report.attribution()


def test_no_phase_growth_no_attribution():
    phases = {"blocked": {"sum": 100.0}}
    report = diff_manifests(
        _manifest("A", 100.0, phases=phases),
        _manifest("B", 150.0, phases=phases),
    )
    assert report.regressed and report.dominant_phase is None
    assert "dominated by" not in report.attribution()


def test_shard_attribution_largest_absolute_move():
    report = diff_manifests(
        _manifest("A", 100.0, directory={"0": 100, "1": 50}),
        _manifest("B", 150.0, directory={"0": 500, "1": 60, "2": 30}),
    )
    assert report.hottest_shard == "0" and report.shard_delta == 400.0
    assert "hottest shard 0 (+400 requests)" in report.attribution()


def test_format_report_table_and_limit():
    a = _manifest("A", 100.0,
                  counters={f"c{i}": 10 + i for i in range(6)})
    b = _manifest("B", 150.0,
                  counters={f"c{i}": 20 + 2 * i for i in range(6)})
    text = format_report(diff_manifests(a, b), limit=3)
    assert "diff: B vs baseline A" in text
    assert "... 4 more metrics" in text  # 7 changed, 3 shown
    assert text.strip().endswith(report_line(a, b))


def report_line(a, b):
    return diff_manifests(a, b).attribution()


def test_format_report_skips_unchanged():
    a = _manifest("A", 100.0, counters={"same": 5, "moved": 10})
    b = _manifest("B", 100.0, counters={"same": 5, "moved": 20})
    text = format_report(diff_manifests(a, b))
    assert "same" not in text and "moved" in text


# -- the CLI ------------------------------------------------------------------


def test_cli_diff_exit_codes(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    write_manifest(str(a), _manifest("base", 100.0, p99=40.0))
    write_manifest(str(b), _manifest("cand", 200.0, p99=40.0))
    # report-only never fails the build
    assert main(["diff", str(a), str(b)]) == 0
    # --check turns the verdict into the exit status
    assert main(["diff", str(a), str(b), "--check"]) == 1
    assert main(["diff", str(a), str(a), "--check"]) == 0
    assert main(["diff", str(a), str(b), "--check", "--threshold", "2.0"]) == 0
    out = capsys.readouterr().out
    assert "regression: sim_time_us +100.0%" in out
    assert "ok: no headline metric regressed" in out


def test_cli_diff_requires_two_paths(tmp_path):
    a = tmp_path / "a.json"
    write_manifest(str(a), _manifest("base", 100.0))
    with pytest.raises(SystemExit, match="two manifest paths"):
        main(["diff", str(a)])


@pytest.mark.parametrize("strip, named", [
    (("result", "sim_time_us"), "sim_time_us missing from candidate"),
    (("quantiles", "fault_latency_us"), "fault_p99_us missing from candidate"),
    (("result", "correct"), "candidate result.correct is not true"),
    (("result",), "sim_time_us missing from candidate; "
                  "candidate result.correct is not true"),
])
def test_cli_check_does_not_pass_on_what_it_cannot_see(strip, named,
                                                       tmp_path, capsys):
    """The guard vouches for a candidate only if every headline metric is
    on both sides and the candidate's answer was right; a bare
    ``{"format": ...}`` used to print "ok" and exit 0."""
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    whole = _manifest("base", 100.0, p99=40.0)
    write_manifest(str(a), whole)
    stripped = _manifest("cand", 100.0, p99=40.0)
    node = stripped
    for key in strip[:-1]:
        node = node[key]
    del node[strip[-1]]
    write_manifest(str(b), stripped)
    assert main(["diff", str(a), str(b)]) == 0  # report-only still is
    assert main(["diff", str(a), str(b), "--check"]) == 1
    out = capsys.readouterr().out
    assert f"unchecked: {named}" in out and "ok:" not in out
    # missing from the baseline is named as such
    assert main(["diff", str(b), str(a), "--check"]) == (
        0 if strip == ("result", "correct") else 1)
    assert ("missing from baseline" in capsys.readouterr().out) == (
        strip != ("result", "correct"))


def test_cli_check_rejects_a_wrong_answer_and_a_bare_document(tmp_path, capsys):
    a = tmp_path / "a.json"
    wrong = tmp_path / "wrong.json"
    bare = tmp_path / "bare.json"
    write_manifest(str(a), _manifest("base", 100.0, p99=40.0))
    write_manifest(str(wrong), _manifest("cand", 90.0, p99=30.0, correct=False))
    write_manifest(str(bare), {"format": MANIFEST_FORMAT})
    assert main(["diff", str(a), str(wrong), "--check"]) == 1
    assert "result.correct is not true" in capsys.readouterr().out
    assert main(["diff", str(a), str(bare), "--check"]) == 1
    out = capsys.readouterr().out
    assert "sim_time_us missing from candidate" in out
    assert "fault_p99_us missing from candidate" in out
    # a regression is still reported as one, whatever else is wrong
    regressed = _manifest("cand", 200.0, p99=40.0, correct=False)
    report = diff_manifests(_manifest("base", 100.0, p99=40.0), regressed)
    assert report.regressed and report.unchecked
    assert report.attribution().startswith("regression: sim_time_us")
