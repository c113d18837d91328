"""Tests for the experiment harness itself: runner, reporting, CLIs."""

import pytest

from repro.bench.experiments import PAPER_TABLE1, figure2_summary, table1
from repro.bench.reporting import (
    render_ablation,
    render_figure2,
    render_table1,
)
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
    rows = table1()
    assert len(rows) == 8
    text = render_table1(rows)
    assert "GRP" in text and "total changed LoC" in text


def test_figure2_summary_counts_scalers():
    points = [
        ScalingPoint("A", "unmodified", 1, 100.0, 1.0, True, 0, 0),
        ScalingPoint("A", "optimized", 8, 25.0, 4.0, True, 0, 0),
        ScalingPoint("B", "optimized", 8, 200.0, 0.5, True, 0, 0),
    ]
    summary = figure2_summary(points)
    assert summary["apps_beyond_single_machine"] == ["A"]
    assert summary["count_beyond"] == 1
    assert summary["peak_speedup"] == 4.0
    assert summary["all_correct"]


def test_render_figure2_layout():
    points = [
        ScalingPoint("A", "unmodified", 1, 100.0, 1.0, True, 0, 0),
        ScalingPoint("A", "initial", 2, 50.0, 2.0, True, 5, 1),
        ScalingPoint("A", "optimized", 2, 40.0, 2.5, True, 4, 0),
    ]
    text = render_figure2(points)
    assert "A" in text and "2.00" in text and "2.50" in text


def test_render_ablation_mixed_values():
    text = render_ablation("t", {"a": 1.5, "b": {"x": 2.0}})
    assert "t" in text and "x=2.0" in text


def test_bench_cli_table1(capsys):
    from repro.bench.__main__ import main as bench_main

    assert bench_main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "Table I" in out


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
