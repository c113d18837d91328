"""The per-file lint rules (``repro.vet.legacy``, and ``yield-discipline``,
since rewritten on the ``repro.vet.rules`` side): the repo itself
must be clean, and each fixture must trip exactly its intended rule (with
a location)."""

import os
import subprocess
import sys
from pathlib import Path

from repro.vet import build_context, run_rules
from repro.vet.legacy import LEGACY_RULES

RULES = LEGACY_RULES + ("yield-discipline",)
from repro.vet.loader import package_root

FIXTURES = Path(__file__).parent / "lint_fixtures"
REPO_ROOT = Path(__file__).resolve().parents[1]


def lint_paths(paths, repo_mode=False):
    return run_rules(build_context(paths, repo_mode=repo_mode), RULES)


def rules_of(violations):
    return sorted({v.rule for v in violations})


def test_rule_registry_is_complete():
    assert RULES == (
        "unhandled-message-type",
        "directory-encapsulation",
        "sim-nondeterminism",
        "span-discipline",
        "slots-discipline",
        "retry-discipline",
        "yield-discipline",
    )


def test_repo_is_lint_clean():
    violations = lint_paths([package_root()], repo_mode=True)
    assert violations == [], "\n".join(v.format() for v in violations)


def test_unhandled_message_type_fixture():
    violations = lint_paths([FIXTURES / "fixture_unhandled_message.py"])
    assert rules_of(violations) == ["unhandled-message-type"]
    (v,) = violations
    assert "MsgType.ORPHAN" in v.message
    assert v.line > 0
    assert "fixture_unhandled_message.py" in v.path


def test_directory_encapsulation_fixture():
    violations = lint_paths([FIXTURES / "fixture_directory_touch.py"])
    assert rules_of(violations) == ["directory-encapsulation"]
    touched = {v.message.split("'")[1] for v in violations}
    assert touched == {".directory_shard", "._lru"}


def test_nondeterminism_fixture():
    violations = lint_paths([FIXTURES / "fixture_nondeterminism.py"])
    assert rules_of(violations) == ["sim-nondeterminism"]
    messages = " | ".join(v.message for v in violations)
    assert "import of the unseeded 'random' module" in messages
    assert "random.random()" in messages
    assert "time.time()" in messages


def test_yield_discipline_fixture():
    fixture = FIXTURES / "fixture_bad_yield.py"
    violations = lint_paths([fixture])
    assert rules_of(violations) == ["yield-discipline"]
    shown = [v.message.split(":")[0] for v in violations]
    assert shown == ["bare yield", "yield None", "yield 'soon'", "yield -1.0"]
    # vetted as part of src/, the one-argument inline timeout is a sleep
    # spelled the old way; the value-carrying one still needs its Event
    in_src = lint_paths([fixture], repo_mode=True)
    (old_way,) = [v for v in in_src if v not in violations]
    assert old_way.line == 16 and len(in_src) == 5
    assert "yield engine.timeout(...): a private sleep" in old_way.message


def test_span_discipline_fixture():
    violations = lint_paths([FIXTURES / "fixture_span_discipline.py"])
    assert rules_of(violations) == ["span-discipline"]
    messages = " | ".join(v.message for v in violations)
    # both un-with'd open forms flagged ...
    assert "'tracer.span(...)'" in messages
    assert "'maybe_span(...)'" in messages
    # ... the explicit pair, which only net/fabric.py may use ...
    assert "'tracer.open_span(...)' outside net/fabric.py" in messages
    assert "'tracer.close_span(...)' outside net/fabric.py" in messages
    # ... and all three smuggled-id dict keys
    for key in ("trace_id", "parent_span", "span_id"):
        assert f"dict key {key!r}" in messages
    assert len(violations) == 7  # the sanctioned with-forms are not flagged


def test_span_discipline_lets_the_fabric_open_and_close_by_hand():
    by_hand = ("def stage(tracer, flight):\n"
               "    span = tracer.open_span(flight, 'net.wire', 0, -1, {})\n"
               "    tracer.close_span(flight, span)\n")
    net_dir = FIXTURES / "net"
    net_dir.mkdir(exist_ok=True)
    try:
        for name, verdict in (("fabric.py", []),
                              ("verbs.py", ["span-discipline"])):
            fixture = net_dir / name
            fixture.write_text(by_hand)
            try:
                assert rules_of(lint_paths([fixture])) == verdict
            finally:
                fixture.unlink()
    finally:
        net_dir.rmdir()


def test_slots_discipline_fixture():
    fixture = FIXTURES / "sim" / "fixture_missing_slots.py"
    violations = lint_paths([fixture])
    assert rules_of(violations) == ["slots-discipline"]
    flagged = {v.message.split()[1] for v in violations}
    # plain class and slot-less dataclass are flagged; the slotted class,
    # the dataclass(slots=True), the enum, and the exception are not
    assert flagged == {"BadEvent", "BadRecord"}
    assert all(v.line > 0 for v in violations)


def test_slots_discipline_scope_is_engine_core_paths():
    # the same slot-less class outside sim/ (and not net/messages.py)
    # is not this rule's business
    fixture = FIXTURES / "plain_module.py"
    fixture.write_text("class SlotLess:\n    def __init__(self):\n"
                       "        self.x = 1\n")
    try:
        assert lint_paths([fixture]) == []
    finally:
        fixture.unlink()
    # ... but a net/messages.py is
    net_dir = FIXTURES / "net"
    net_dir.mkdir(exist_ok=True)
    fixture = net_dir / "messages.py"
    fixture.write_text("class SlotLess:\n    def __init__(self):\n"
                       "        self.x = 1\n")
    try:
        assert rules_of(lint_paths([fixture])) == ["slots-discipline"]
    finally:
        fixture.unlink()
        net_dir.rmdir()


def test_retry_discipline_fixture():
    violations = lint_paths([FIXTURES / "fixture_retry_discipline.py"])
    assert rules_of(violations) == ["retry-discipline"]
    assert len(violations) == 2
    messages = " | ".join(v.message for v in violations)
    # the undeclared message is caught through the msg = Message(...) binding
    assert "MsgType.NAK" in messages
    assert "MsgType.SYN" not in messages  # declared → clean
    # the hand-rolled loop is flagged; the constant-delay loop is not
    assert "retransmit loop scales its own delay" in messages
    lines = sorted(v.line for v in violations)
    source = (FIXTURES / "fixture_retry_discipline.py").read_text().splitlines()
    assert "net.request(msg)" in source[lines[0] - 1]
    assert source[lines[1] - 1].strip().startswith("while True:")


def test_span_discipline_repo_mode_exempts_obs():
    obs_dir = FIXTURES / "obs"
    obs_dir.mkdir(exist_ok=True)
    fixture = obs_dir / "machinery.py"
    fixture.write_text(
        "def serialize(s):\n    return {'trace_id': s.trace_id}\n"
    )
    try:
        assert rules_of(lint_paths([fixture])) == ["span-discipline"]
        assert lint_paths([fixture], repo_mode=True) == []
    finally:
        fixture.unlink()
        obs_dir.rmdir()


def test_repo_mode_exempts_offline_tooling():
    # tools/ reads no wall clocks today, but the exemption is what lets
    # e.g. bench harnesses time themselves; a fixture under a "tools"
    # directory demonstrates it
    tools_dir = FIXTURES / "tools"
    tools_dir.mkdir(exist_ok=True)
    fixture = tools_dir / "offline.py"
    fixture.write_text("import time\n\ndef stamp():\n    return time.time()\n")
    try:
        assert rules_of(lint_paths([fixture])) == ["sim-nondeterminism"]
        assert lint_paths([fixture], repo_mode=True) == []
    finally:
        fixture.unlink()
        tools_dir.rmdir()


def _run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.vet", "check", *args,
         "--rules", ",".join(RULES)],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT,
    )


def test_cli_clean_on_repo():
    result = _run_cli()
    assert result.returncode == 0, result.stdout + result.stderr
    assert "clean" in result.stdout


def test_cli_nonzero_on_fixture():
    result = _run_cli(str(FIXTURES / "fixture_nondeterminism.py"))
    assert result.returncode == 1
    assert "[sim-nondeterminism]" in result.stdout
    assert "fixture_nondeterminism.py" in result.stdout
    assert "violation(s)" in result.stdout


def test_cli_list_rules():
    result = _run_cli("--list-rules")
    assert result.returncode == 0
    assert set(RULES) <= set(result.stdout.split())
