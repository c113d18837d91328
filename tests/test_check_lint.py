"""The per-file rules (the ones that read one module at a time) through
the ``python -m repro.vet`` entry point: they are registered, the repo is
clean under them, and a seeded fixture fails with its location.  Their
exact findings are the corpus table in ``test_vet_rules.py``."""

from pathlib import Path

from conftest import run_vet_module
from repro.vet import REGISTRY

FIXTURES = Path(__file__).parent / "lint_fixtures"

PER_FILE_RULES = (
    "directory-encapsulation",
    "sim-nondeterminism",
    "gc-discipline",
    "span-discipline",
    "slots-discipline",
    "retry-discipline",
    "yield-discipline",
)


def test_rule_registry_is_complete():
    assert set(PER_FILE_RULES) <= set(REGISTRY)
    # the message graph decides what this per-file rule used to
    assert "unhandled-message-type" not in REGISTRY


def test_repo_is_lint_clean(repo_vet_check):
    # clean under every rule is clean under the per-file ones
    code, out = repo_vet_check
    assert code == 0, out


def test_cli_clean_on_repo(repo_vet_module_run):
    result = repo_vet_module_run
    assert result.returncode == 0, result.stdout + result.stderr
    assert "clean" in result.stdout


def test_cli_nonzero_on_fixture():
    result = run_vet_module(str(FIXTURES / "fixture_nondeterminism.py"),
                            "--rules", ",".join(PER_FILE_RULES))
    assert result.returncode == 1
    assert "[sim-nondeterminism]" in result.stdout
    assert "fixture_nondeterminism.py" in result.stdout
    assert "violation(s)" in result.stdout


def test_cli_list_rules():
    result = run_vet_module("--list-rules")
    assert result.returncode == 0
    assert set(PER_FILE_RULES) <= set(result.stdout.split())
