"""CLI behavior of ``python -m repro.vet``: exit codes, baseline
workflow, and graph rendering."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.vet.cli import main

FIXTURES = Path(__file__).parent / "lint_fixtures" / "vet"
REPO_SRC = Path(__file__).parent.parent / "src"


def run_main(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_repo_check_is_clean(capsys):
    code, out, _ = run_main(["check"], capsys)
    assert code == 0
    assert "clean" in out


def test_strict_repo_check_is_clean(capsys):
    code, out, _ = run_main(["check", "--strict"], capsys)
    assert code == 0


def test_fixture_check_fails_with_provenance(capsys):
    fixture = FIXTURES / "fixture_dropped_wait.py"
    code, out, _ = run_main(["check", str(fixture)], capsys)
    assert code == 1
    assert "[dropped-wait]" in out
    assert f"{fixture}:28" in out


def test_list_rules(capsys):
    code, out, _ = run_main(["--list-rules"], capsys)
    assert code == 0
    names = out.split()
    assert "dropped-wait" in names
    assert "unhandled-message-type" in names
    assert "lens-sink-discipline" in names
    assert "serve-discipline" in names
    assert len(names) == 16


def test_unknown_rule_exits_2(capsys):
    code, _, err = run_main(["check", "--rules", "bogus"], capsys)
    assert code == 2
    assert "bogus" in err


def test_rule_subset(capsys):
    fixture = FIXTURES / "fixture_missing_handler.py"
    code, out, _ = run_main(
        ["check", str(fixture), "--rules", "handler-totality"], capsys
    )
    assert code == 1
    assert "[handler-totality]" in out
    assert "[unhandled-message-type]" not in out


def test_json_output(capsys):
    import json

    fixture = FIXTURES / "fixture_orphan_msgtype.py"
    code, out, _ = run_main(["check", str(fixture), "--json"], capsys)
    assert code == 1
    data = json.loads(out)
    assert data["violations"][0]["rule"] == "orphan-message-type"


def test_graph_text(capsys):
    code, out, _ = run_main(["graph"], capsys)
    assert code == 0
    assert "MsgType.PAGE_REQUEST" in out
    assert "replies PAGE_GRANT, PAGE_REDIRECT, PAGE_RETRY" in out


def test_graph_dot_to_file(tmp_path, capsys):
    target = tmp_path / "graph.dot"
    code, _, _ = run_main(["graph", "--dot", "-o", str(target)], capsys)
    assert code == 0
    dot = target.read_text()
    assert dot.startswith("digraph dexvet {")
    assert "msg_PAGE_REQUEST" in dot


def test_graph_json(capsys):
    import json

    code, out, _ = run_main(["graph", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["PING"]["replies"] == ["PONG"]


def test_baseline_workflow(tmp_path, capsys):
    """update-baseline writes suppressions; check honors them; strict
    flags them once they go stale."""
    fixture = FIXTURES / "fixture_orphan_msgtype.py"
    baseline = tmp_path / "vet-baseline.toml"

    code, out, _ = run_main(
        ["check", str(fixture), "--update-baseline",
         "--baseline", str(baseline)], capsys,
    )
    assert code == 0
    assert baseline.is_file()

    # suppressed now
    code, out, _ = run_main(
        ["check", str(fixture), "--baseline", str(baseline)], capsys
    )
    assert code == 0
    assert "1 suppressed by baseline" in out

    # a clean target makes the entry stale: strict mode reports it
    clean = FIXTURES / "fixture_clean.py"
    code, out, _ = run_main(
        ["check", str(clean), "--baseline", str(baseline), "--strict"],
        capsys,
    )
    assert code == 1
    assert "[baseline-stale]" in out

    # non-strict ignores hygiene
    code, out, _ = run_main(
        ["check", str(clean), "--baseline", str(baseline)], capsys
    )
    assert code == 0


def test_update_baseline_explicit_paths_defaults_to_cwd(
    tmp_path, capsys, monkeypatch
):
    """Vetting explicit paths must never write the repo's checked-in
    baseline by default — the update lands in the working directory."""
    monkeypatch.chdir(tmp_path)
    fixture = FIXTURES / "fixture_orphan_msgtype.py"
    repo_baseline = REPO_SRC.parent / "vet-baseline.toml"
    before = repo_baseline.read_text()

    code, out, _ = run_main(
        ["check", str(fixture), "--update-baseline"], capsys
    )
    assert code == 0
    assert (tmp_path / "vet-baseline.toml").is_file()
    assert repo_baseline.read_text() == before


def test_no_baseline_flag_bypasses_suppressions(tmp_path, capsys):
    fixture = FIXTURES / "fixture_orphan_msgtype.py"
    baseline = tmp_path / "vet-baseline.toml"
    run_main(["check", str(fixture), "--update-baseline",
              "--baseline", str(baseline)], capsys)
    code, out, _ = run_main(
        ["check", str(fixture), "--baseline", str(baseline),
         "--no-baseline"], capsys,
    )
    assert code == 1
    assert "[orphan-message-type]" in out


def _module_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC)
    return env


def test_module_entrypoint_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "repro.vet", "--strict"],
        capture_output=True, text=True, env=_module_env(),
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "clean" in result.stdout
