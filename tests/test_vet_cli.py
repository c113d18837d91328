"""CLI behavior of ``python -m repro.vet``: exit codes, usage errors,
and graph rendering."""

from pathlib import Path

import pytest

from repro.vet.cli import main

FIXTURES = Path(__file__).parent / "lint_fixtures" / "vet"


def run_main(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_repo_check_is_clean(repo_vet_check):
    code, out = repo_vet_check
    assert code == 0, out
    assert "clean" in out


def test_fixture_check_fails_with_provenance(capsys):
    fixture = FIXTURES / "fixture_dropped_wait.py"
    code, out, _ = run_main(["check", str(fixture)], capsys)
    assert code == 1
    assert "[dropped-wait]" in out
    assert f"{fixture}:28" in out


@pytest.mark.parametrize("name, code", [
    ("fixture_clean.py", 0), ("fixture_dropped_wait.py", 1),
], ids=["clean", "seeded"])
def test_path_as_first_argument(name, code, capsys):
    # ``check`` is the default command: a first positional that is not a
    # command is the first path
    fixture = FIXTURES / name
    assert run_main([str(fixture)], capsys)[0] == code
    assert run_main(["check", str(fixture)], capsys)[0] == code


@pytest.mark.parametrize("args, flag", [
    (["check", "--dot"], "--dot"),
    (["graph", "--rules", "dropped-wait"], "--rules"),
    (["check", "--rules", "bogus"], "bogus"),
], ids=["check-dot", "graph-rules", "unknown-rule"])
def test_flag_that_does_not_apply_is_usage_error(args, flag, capsys):
    code, out, err = run_main(args + [str(FIXTURES / "fixture_clean.py")], capsys)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and flag in err


def test_list_rules(capsys):
    code, out, _ = run_main(["--list-rules"], capsys)
    assert code == 0
    names = out.split()
    assert "dropped-wait" in names
    assert "lens-sink-discipline" in names
    assert "serve-discipline" in names
    assert "gc-discipline" in names
    assert "third-party-layering" in names
    assert len(names) == 18


def test_rule_subset(capsys):
    fixture = FIXTURES.parent / "fixture_retry_discipline.py"
    code, out, _ = run_main(
        ["check", str(fixture), "--rules", "retry-discipline"], capsys
    )
    assert code == 1
    assert "[retry-discipline]" in out
    assert "[reply-pairing]" not in out


def test_json_output(capsys):
    import json

    fixture = FIXTURES / "fixture_orphan_msgtype.py"
    code, out, _ = run_main(["check", str(fixture), "--json"], capsys)
    assert code == 1
    data = json.loads(out)
    assert list(data) == ["violations"]
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


def test_module_entrypoint_subprocess(repo_vet_module_run):
    result = repo_vet_module_run
    assert result.returncode == 0, result.stdout + result.stderr
    assert "clean" in result.stdout
