"""Tests for the experiment harness itself: runner, experiment table, CLIs."""

import argparse
import dataclasses

import pytest

import repro.bench.experiments as experiments
from repro.apps.common import RunSpec
from repro.bench.__main__ import main as bench_main
from repro.bench.experiments import PAPER_TABLE1, SHAPE, Row, render, run
from repro.bench.runner import SCALE_PRESETS, run_point

TINY = {"text_size": 256 * 1024, "plant_every": 2000}


def test_run_point_applies_overrides():
    result = run_point("GRP", "initial", 1, scale="small", **TINY)
    assert result.correct
    assert result.num_nodes == 1


def _sweep(apps, nodes):
    return argparse.Namespace(apps=apps, nodes=nodes, scale="small",
                              directory=None)


def _real_runs(monkeypatch, overrides, tamper=lambda result: None):
    """Every ``RunSpec.run`` a real run on the workload *overrides*, its
    result passed through *tamper* before the sweep sees it."""
    real = RunSpec.run

    def run(spec, **how):
        result = real(dataclasses.replace(spec, overrides=overrides), **how)
        tamper(result)
        return result

    monkeypatch.setattr(RunSpec, "run", run)


def test_run_scaling_normalizes_to_baseline(monkeypatch):
    _real_runs(monkeypatch, TINY)
    rows = {r.name: r.ours for r in run("figure2", _sweep(["GRP"], [1]))}
    # initial on one node == baseline plus only migration overhead
    assert 0.5 < rows["fig2.GRP.initial.n1"] <= 1.05
    assert "fig2.GRP.unmodified.n1" not in rows
    assert rows["fig2.wrong_outputs"] == 0
    assert rows["fig2.peak"] >= 1.0  # the baseline's own ratio


def test_scale_presets_cover_all_apps():
    for scale in ("small", "paper"):
        assert set(SCALE_PRESETS[scale]) == set(PAPER_TABLE1)


def test_table1_rows_complete():
    rows = run("table1", None)
    assert {f"table1.{app}.{variant}" for app in PAPER_TABLE1
            for variant in ("initial", "optimized")} <= {r.name for r in rows}
    text = render(rows)
    assert "table1.GRP.initial" in text and "table1.total.initial" in text


def test_figure2_summary_counts_scalers(canned_runs):
    specs, elapsed = canned_runs
    elapsed.update({("EP", "optimized", 8): 25.0, ("EP", "initial", 8): 50.0,
                    ("BT", "optimized", 8): 200.0, ("BT", "initial", 8): 400.0})
    rows = {r.name: r for r in run("figure2", _sweep(["EP", "BT"], [8]))}
    assert [(s.app, s.variant, s.nodes) for s in specs] == [
        (app, variant, nodes) for app in ("EP", "BT") for variant, nodes in
        (("unmodified", 1), ("initial", 8), ("optimized", 8))]
    assert rows["fig2.EP.optimized.n8"].ours == 4.0
    assert rows["fig2.BT.optimized.n8"].ours == 0.5
    assert rows["fig2.beyond_one_machine"].ours == 1
    assert rows["fig2.peak"].ours == 4.0
    assert rows["fig2.wrong_outputs"].ours == 0 and rows["fig2.wrong_outputs"].ok


def test_render_figure2_layout(canned_runs):
    _, elapsed = canned_runs
    elapsed.update({("EP", "initial", 2): 50.0, ("EP", "optimized", 2): 40.0})
    text = render(run("figure2", _sweep(["EP"], [2])))
    assert "fig2.EP.initial.n2" in text and "2.00" in text and "2.50" in text


def test_render_ablation_mixed_values():
    text = render([Row("t.a", 1.5, "us"),
                   Row("t.b", 2.0, "ratio", paper=4.0, lo=1.0)])
    lines = text.splitlines()
    assert lines[1].split() == ["t.a", "1.5", "us", "-", "-", "-"]
    assert lines[2].split() == ["t.b", "2.000", "ratio", "4.000", "0.50",
                                "[1.000,", "inf]", "ok"]


def test_bench_cli_table1(capsys):
    assert bench_main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "Table I" in out


#: the experiments cheap enough for tier-1 (well under a second each), with
#: the prefix of the rows they measure
CHEAP = {"table1": "table1.", "table2": "table2.", "figure3": "fig3."}


@pytest.mark.parametrize("name", list(CHEAP))
def test_cheap_experiments_hold_every_band(name):
    rows = run(name, None)
    banded = {r.name for r in rows if r.banded}
    assert banded == {key for key, claim in SHAPE.items()
                      if key.startswith(CHEAP[name])
                      and Row(key, 0.0, "", **claim).banded}
    assert [r.name for r in rows if not r.ok] == []


def test_bench_cli_exits_1_on_a_row_outside_its_band(monkeypatch, capsys):
    monkeypatch.setitem(experiments.EXPERIMENTS, "table1",
                        lambda args: [Row("table1.GRP.initial", 3, "LoC")])
    assert bench_main(["table1"]) == 1
    captured = capsys.readouterr()
    assert "table1.GRP.initial" in captured.err
    assert "FAIL" in captured.out


def test_bench_cli_exits_2_on_an_unknown_experiment(capsys):
    with pytest.raises(SystemExit) as exit_info:
        bench_main(["table9"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'table9'" in capsys.readouterr().err


def test_apps_cli_runs_and_reports(capsys):
    from repro.apps.__main__ import main as apps_main

    assert apps_main(["EP", "--nodes", "1"]) == 0
    out = capsys.readouterr().out
    assert "EP" in out and "correct=True" in out


def test_apps_cli_rejects_unknown_app():
    from repro.apps.__main__ import main as apps_main

    with pytest.raises(SystemExit):
        apps_main(["XYZ"])


@pytest.mark.parametrize("flag", ["--nodes", "--threads-per-node"])
def test_apps_cli_rejects_a_zero_count_as_a_usage_error(flag, capsys):
    from repro.apps.__main__ import main as apps_main

    with pytest.raises(SystemExit) as exit_info:
        apps_main(["EP", flag, "0"])
    assert exit_info.value.code == 2
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert f"argument {flag}: must be >= 1, got 0" in last


@pytest.mark.parametrize("unverified", [False, None])
def test_an_unverified_baseline_is_a_failure(unverified, monkeypatch, capsys):
    """A wrong baseline is one more ``fig2.wrong_outputs`` run: the CLI
    renders every row and exits 1 naming that row, not a traceback."""
    def unverified_baseline(result):
        if result.variant == "unmodified":
            result.correct = unverified

    _real_runs(monkeypatch, {}, unverified_baseline)
    assert bench_main(["figure2", "--apps", "EP", "--nodes", "1"]) == 1
    captured = capsys.readouterr()
    assert "fig2.EP.initial.n1" in captured.out
    assert "fig2.wrong_outputs" in captured.err


def test_apps_cli_runs_one_spec_per_node_count(canned_runs, monkeypatch,
                                               capsys):
    """No baseline, no speed-up: ``python -m repro.bench figure2`` has
    those; a wrong output exits 1."""
    from repro.apps.__main__ import main as apps_main

    specs, _ = canned_runs
    assert apps_main(["EP", "--nodes", "1", "2"]) == 0
    assert [(s.app, s.variant, s.nodes) for s in specs] == [
        ("EP", "initial", 1), ("EP", "initial", 2)]
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and all("x)" not in line for line in lines)
    canned = RunSpec.run

    def wrong(spec, **how):
        result = canned(spec, **how)
        result.correct = False
        return result

    monkeypatch.setattr(RunSpec, "run", wrong)
    assert apps_main(["EP", "--nodes", "1", "2"]) == 1
    assert len(specs) == 3  # stopped at the first wrong output
    assert "wrong application output" in capsys.readouterr().err


def test_run_scaling_rejects_bad_nodes():
    # node counts beyond 8 simply grow the simulated rack; zero is illegal
    with pytest.raises(ValueError):
        run_point("GRP", "initial", 0, **TINY)
