"""Tests for the experiment harness itself: runner, experiment table, CLIs."""

import argparse

import pytest

import repro.bench.experiments as experiments
from repro.bench.__main__ import main as bench_main
from repro.bench.experiments import PAPER_TABLE1, SHAPE, Row, render, run
from repro.bench.runner import SCALE_PRESETS, ScalingPoint, run_point, run_scaling

TINY = {"text_size": 256 * 1024, "plant_every": 2000}


def test_run_point_applies_overrides():
    result = run_point("GRP", "initial", 1, scale="small", **TINY)
    assert result.correct
    assert result.num_nodes == 1


def test_run_scaling_normalizes_to_baseline():
    points = run_scaling("GRP", node_counts=(1,), variants=("initial",),
                         **TINY)
    assert points[0].variant == "unmodified"
    assert points[0].normalized == 1.0
    initial = [p for p in points if p.variant == "initial"]
    assert len(initial) == 1
    # initial on one node == baseline plus only migration overhead
    assert 0.5 < initial[0].normalized <= 1.05


def test_scale_presets_cover_all_apps():
    for scale in ("small", "paper"):
        assert set(SCALE_PRESETS[scale]) == set(PAPER_TABLE1)


def test_table1_rows_complete():
    rows = run("table1", None)
    assert {f"table1.{app}.{variant}" for app in PAPER_TABLE1
            for variant in ("initial", "optimized")} <= {r.name for r in rows}
    text = render(rows)
    assert "table1.GRP.initial" in text and "table1.total.initial" in text


def _figure2(monkeypatch, points):
    """The figure2 experiment's rows over a made-up sweep."""
    monkeypatch.setattr(experiments, "figure2", lambda **kwargs: points)
    sweep = argparse.Namespace(apps=None, nodes=None, scale=None,
                               directory=None)
    return run("figure2", sweep)


def test_figure2_summary_counts_scalers(monkeypatch):
    rows = {r.name: r for r in _figure2(monkeypatch, [
        ScalingPoint("A", "unmodified", 1, 100.0, 1.0, True, 0, 0),
        ScalingPoint("A", "optimized", 8, 25.0, 4.0, True, 0, 0),
        ScalingPoint("B", "optimized", 8, 200.0, 0.5, True, 0, 0),
    ])}
    assert rows["fig2.A.optimized.n8"].ours == 4.0
    assert rows["fig2.beyond_one_machine"].ours == 1
    assert rows["fig2.peak"].ours == 4.0
    assert rows["fig2.wrong_outputs"].ours == 0 and rows["fig2.wrong_outputs"].ok


def test_render_figure2_layout(monkeypatch):
    text = render(_figure2(monkeypatch, [
        ScalingPoint("A", "unmodified", 1, 100.0, 1.0, True, 0, 0),
        ScalingPoint("A", "initial", 2, 50.0, 2.0, True, 5, 1),
        ScalingPoint("A", "optimized", 2, 40.0, 2.5, True, 4, 0),
    ]))
    assert "fig2.A.initial.n2" in text and "2.00" in text and "2.50" in text


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
    import repro.apps.__main__ as apps_cli
    import repro.bench.runner as runner

    def with_unverified_baseline(run_point):
        def run(app, variant, *args, **kwargs):
            result = run_point(app, variant, *args, **kwargs)
            if variant == "unmodified":
                result.correct = unverified
            return result
        return run

    monkeypatch.setattr(apps_cli, "run_point",
                        with_unverified_baseline(run_point))
    assert apps_cli.main(["EP", "--nodes", "1"]) == 1
    assert "baseline" in capsys.readouterr().err
    monkeypatch.setattr(runner, "run_point",
                        with_unverified_baseline(run_point))
    with pytest.raises(AssertionError, match="baseline"):
        run_scaling("GRP", node_counts=(1,), variants=("initial",), **TINY)


def test_run_scaling_rejects_bad_nodes():
    # node counts beyond 8 simply grow the simulated rack; zero is illegal
    with pytest.raises(ValueError):
        run_point("GRP", "initial", 0, **TINY)
