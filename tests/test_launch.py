"""The launch plane (``repro.apps.common``): one run description behind
every CLI, harness and app prologue.

Pinned here: command line -> ``RunSpec`` -> ``params()`` / ``cluster()`` for
each CLI; ``run_point`` is ``RunSpec.run`` spelled as a call; the
``DexCluster`` seam DexBench's traced run swaps; the chaos harness reading
the controller off the cluster it built; each CLI's flag set; and the
failure surface the shared declaration fixes (usage errors, not
tracebacks)."""

import argparse
import inspect
import re

import numpy as np
import pytest

from repro import SimParams
from repro.apps.__main__ import main as apps_main
from repro.apps.common import (
    APP_NAMES,
    TESTBED_NODES,
    RunSpec,
    add_run_arguments,
    resolve_app,
)
from repro.bench.__main__ import main as bench_main
from repro.bench.runner import run_point
from repro.chaos import run_under_chaos
from repro.chaos.__main__ import _build_parser as chaos_parser, main as chaos_main
from repro.chaos.scenario import ChaosRule, ChaosScenario
from repro.core import DexCluster
from repro.core.errors import NodeFailedError
from repro.obs.__main__ import _spec as obs_spec, main as obs_main
from repro.serve import ServeManager
from repro.serve.__main__ import build_parser as serve_parser, main as serve_main

TINY_KMN = ["--app-arg", "n_points=4000", "--app-arg", "max_iters=1"]
OBS_RUN_COMMANDS = ["run", "report", "export", "manifest", "top"]


# ---------------------------------------------------------------------------
# names


@pytest.mark.parametrize("spelling, short", [
    ("KMN", "KMN"), ("kmn", "KMN"), ("kmeans", "KMN"), ("KMeans", "KMN"),
    ("string-match", "GRP"), ("string_match", "GRP"), ("grep", "GRP"),
    ("blackscholes", "BLK"), ("bfs", "BFS"), ("pagerank", "BP"), ("ft", "FT"),
])
def test_one_alias_table(spelling, short):
    assert resolve_app(spelling) == short
    assert RunSpec(spelling).app == short


MICRO_NAMES = ("pagefault", "micro")


def test_the_micros_run_like_apps(tmp_path, capsys):
    """Each micro is an app on its own 2-node rack, whatever node count
    the spec names: every run-taking CLI resolves it (checked at the
    parser, as the long aliases are), and the CLIs that used to refuse
    one run it."""
    for name in MICRO_NAMES:
        assert resolve_app(name.upper()) == name
        for main, argv, dest in (param.values for param in RUN_TAKING):
            last = _usage_error(main, [*argv, *_naming(main, dest, name),
                                       "--scale", "huge"], capsys)
            assert "argument --scale: invalid choice: 'huge'" in last
        spec = RunSpec(name, nodes=6)
        assert spec.cluster().num_nodes == 2
        result = spec.run()
        assert result.correct is True and result.num_nodes == 2
        assert result.elapsed_us > 0 and result.stats.total_faults > 0
    assert chaos_main(["--app", "pagefault", "--drop", "page_request"]) == 0
    assert "pagefault initial nodes=2:" in capsys.readouterr().out
    out = tmp_path / "micro.json"
    assert obs_main(["manifest", "--app", "micro", "--out", str(out)]) == 0
    assert "micro-initial@2" in capsys.readouterr().out


@pytest.mark.parametrize("bad, match", [
    (dict(app="nosuch"), "unknown app 'nosuch'"),
    (dict(app="EP", variant="tuned"), "variant must be one of"),
    (dict(app="EP", scale="huge"), "scale must be one of"),
    (dict(app="EP", nodes=0), "nodes must be >= 1, got 0"),
    (dict(app="EP", threads_per_node=0), "threads_per_node must be >= 1"),
    (dict(app="EP", overrides={"n_points": 5}), "EP takes no workload "
                                                "argument n_points"),
    (dict(app="EP", overrides={"num_nodes": 3}), "argument num_nodes"),
    (dict(app="pagefault", overrides={"n_pairs": 5}), "argument n_pairs"),
])
def test_a_spec_validates_at_construction(bad, match):
    with pytest.raises(ValueError, match=match):
        RunSpec(**bad)


# ---------------------------------------------------------------------------
# command line -> RunSpec -> params() / cluster(), per CLI


def test_apps_cli_spec(monkeypatch, capsys):
    import repro.apps.__main__ as apps_cli

    seen = []

    def recording(*args, **kwargs):
        seen.append((args, kwargs))
        return run_point(*args, **kwargs)

    monkeypatch.setattr(apps_cli, "run_point", recording)
    assert apps_cli.main(["ep", "--nodes", "1", "2", "--variant", "optimized",
                          "--threads-per-node", "2"]) == 0
    points = [(a[:3], kw) for a, kw in seen if a[1] != "unmodified"]
    assert points == [
        (("EP", "optimized", n), dict(scale="small", threads_per_node=2))
        for n in (1, 2)]
    assert "EP optimized n=2" in capsys.readouterr().out


def test_bench_cli_declares_the_sweep(monkeypatch, capsys):
    import repro.bench.experiments as experiments

    seen = {}
    monkeypatch.setattr(experiments, "figure2",
                        lambda **kwargs: seen.update(kwargs) or [])
    monkeypatch.setattr("repro.bench.experiments.render",
                        lambda points: "rendered")
    assert bench_main(["figure2", "--apps", "kmeans", "bt", "--nodes", "1",
                       "2", "--directory", "sharded"]) == 0
    assert seen == dict(apps=["KMN", "BT"], node_counts=[1, 2],
                        scale="small", directory="sharded")
    seen.clear()
    assert bench_main(["figure2"]) == 0
    assert seen == dict(apps=APP_NAMES, node_counts=[1, 2, 4, 8],
                        scale="small", directory=None)


@pytest.fixture
def obs_namespace(monkeypatch):
    """What ``python -m repro.obs <argv>`` parses, without running it."""
    import repro.obs.__main__ as obs_cli

    parsed = []
    for command in OBS_RUN_COMMANDS:
        monkeypatch.setattr(obs_cli, f"cmd_{command}",
                            lambda ns: parsed.append(ns) or 0)

    def parse(argv):
        assert obs_main(argv) == 0
        return parsed[-1]

    return parse


def test_obs_cli_spec(obs_namespace):
    ns = obs_namespace(["top", "--app", "kmeans", "--nodes", "2",
                        "--directory", "sharded", "--window-us", "750",
                        *TINY_KMN])
    spec = obs_spec(ns)
    assert (spec.app, spec.variant, spec.nodes, spec.scale) == (
        "KMN", "initial", 2, "small")
    assert spec.overrides == {"n_points": 4000, "max_iters": 1}
    params = spec.params()
    assert (params.trace, params.lens, params.lens_window_us) == (
        "1", "1", 750.0)
    assert params.directory == "sharded" and params.seed is None
    cluster = spec.cluster()
    assert cluster.params == params
    assert cluster.num_nodes == TESTBED_NODES
    assert cluster.tracer is not None and cluster.lens is not None

    defaults = obs_spec(obs_namespace(["run"]))
    assert (defaults.app, defaults.nodes, defaults.directory) == (
        "KMN", 4, "origin")
    assert defaults.params().lens is None  # only top / manifest turn it on

    micro = obs_spec(obs_namespace(["export", "--app", "pagefault",
                                    "--scope"]))
    assert micro.app == "pagefault" and micro.params().scope == "1"
    assert micro.cluster().num_nodes == 2


def test_chaos_cli_spec():
    spec = RunSpec.from_args(chaos_parser().parse_args(
        ["--app", "string-match", "--nodes", "3", "--seed", "9",
         "--directory", "sharded"]))
    assert (spec.app, spec.nodes, spec.seed) == ("GRP", 3, 9)
    params = spec.params()
    assert params.seed == 9 and params.directory == "sharded"
    assert spec.cluster().num_nodes == TESTBED_NODES
    default = RunSpec.from_args(chaos_parser().parse_args([]))
    assert default.app == "micro"
    assert default.params() == SimParams()
    assert default.cluster().num_nodes == 2


def test_serve_cli_shares_the_declaration():
    ns = serve_parser().parse_args([])
    assert (ns.nodes, ns.seed, ns.directory) == (8, 42, None)
    ns = serve_parser().parse_args(
        ["--nodes", "4", "--seed", "7", "--directory", "sharded"])
    assert (ns.nodes, ns.seed, ns.directory) == (4, 7, "sharded")


def test_params_lays_directory_and_seed_over_the_base():
    base = SimParams(trace="1", seed=3)
    assert RunSpec("EP", base=base).params() is base
    laid = RunSpec("EP", base=base, directory="sharded", seed=8).params()
    assert (laid.trace, laid.directory, laid.seed) == ("1", "sharded", 8)
    assert RunSpec("EP").params() == SimParams()


def test_a_cli_names_its_own_defaults():
    parser = argparse.ArgumentParser()
    add_run_arguments(parser, "app", "--nodes", "--seed", nodes=[2, 4], seed=5)
    ns = parser.parse_args(["blackscholes"])
    assert (ns.app, ns.nodes, ns.seed) == ("BLK", [2, 4], 5)
    assert parser.parse_args(["ep", "--nodes", "1", "3"]).nodes == [1, 3]
    spec = RunSpec.from_args(ns, nodes=4)
    assert (spec.app, spec.nodes, spec.seed) == ("BLK", 4, 5)


# ---------------------------------------------------------------------------
# run_point == RunSpec.run; the cluster seam


def _observables(result):
    stats = result.stats
    return (result.elapsed_us, stats.total_faults, stats.fault_retries,
            stats.pages_transferred, len(stats.migrations),
            result.num_threads, result.correct)


def test_run_point_is_runspec_run():
    called = run_point("EP", "initial", 2, "small", n_pairs=60_000)
    spelled = RunSpec("EP", "initial", 2, "small",
                      overrides={"n_pairs": 60_000}).run()
    assert called.correct is True
    assert _observables(called) == _observables(spelled)
    assert np.array_equal(called.output, spelled.output)
    # ... and the module's own entry point, which the spec calls
    from repro.apps.npb import ep

    direct = ep.run(num_nodes=2, variant="initial", n_pairs=60_000)
    assert _observables(direct) == _observables(called)


def test_run_point_routes_its_keywords():
    params = SimParams(seed=5)
    own = RunSpec("EP", nodes=2, base=params).cluster()
    result = run_point("EP", "optimized", 2, params=params, cluster=own,
                       threads_per_node=2, n_pairs=60_000)
    assert result.num_threads == 4 and result.correct
    assert own.processes and own.engine.now > 0
    sharded = run_point("EP", "initial", 1, directory="sharded",
                        params=params, n_pairs=60_000)
    assert sharded.correct
    with pytest.raises(ValueError, match="nodes must be >= 1"):
        run_point("EP", "initial", 0)
    with pytest.raises(ValueError, match=r"num_nodes must be in \[1, 8\]"):
        run_point("EP", "initial", 9, cluster=own)


def test_an_app_run_builds_whatever_the_plane_names(built):
    """DexBench's traced run swaps ``repro.apps.common.DexCluster`` for a
    recording subclass (conftest's ``built``); every way of starting an app
    must build that, and every way closes the cluster it built: the chaos
    harness too, once it has read the controller's report."""
    from repro.apps.npb import ep

    run_point("EP", "initial", 2, n_pairs=60_000)
    ep.run(num_nodes=1, n_pairs=60_000)
    RunSpec("EP", overrides={"n_pairs": 60_000}).run()
    run_under_chaos(RunSpec("EP", nodes=2, overrides={"n_pairs": 60_000}))
    assert len(built) == 4
    assert all(type(c).__name__ == "RecordingCluster" for c in built)
    assert [c.num_nodes for c in built] == [TESTBED_NODES] * 4
    assert [len(c.processes) for c in built] == [0, 0, 0, 0]


# ---------------------------------------------------------------------------
# chaos: the controller comes off the cluster the harness built


def _crash(node=2):
    return ChaosScenario(
        rules=[ChaosRule(kind="crash", node=node, msg_type="lease_renew",
                         src=node, nth=10)],
        seed=4, on_exclusive_loss="rollback",
    ).validate()


def test_chaos_report_is_the_last_attempts_cluster(built):
    scenario = _crash()
    outcome = run_under_chaos(RunSpec("kmeans", nodes=4, overrides=dict(
        n_points=20_000, max_iters=2)), scenario, max_restarts=1)
    first, last = built
    assert outcome.app == "KMN" and outcome.correct
    assert len(outcome.attempts) == 2
    assert first.chaos.report()["crashed"] == [2]
    assert outcome.report == last.chaos.report()
    assert outcome.report["crashed"] == []
    assert not hasattr(scenario, "last_controller")


def test_an_unsurvived_scenario_carries_its_report(built):
    with pytest.raises(NodeFailedError) as exc_info:
        run_under_chaos(RunSpec("KMN", nodes=4, overrides=dict(
            n_points=20_000, max_iters=2)), _crash(), max_restarts=0)
    (only,) = built
    assert exc_info.value.chaos_report == only.chaos.report()
    assert exc_info.value.chaos_report["crashed"] == [2]


def test_the_entry_points_take_the_description_not_its_fields():
    """The rack is configured by ``SimParams`` alone and a run by
    ``RunSpec`` alone: no entry point re-spells their fields as keywords
    (``ServeManager``'s *seed* and *directory* mirror the serve CLI)."""
    def names(fn):
        return list(inspect.signature(fn).parameters)

    assert names(DexCluster) == ["num_nodes", "params"]
    assert names(ServeManager) == ["specs", "num_nodes", "seed", "directory",
                                   "params", "fail_stop"]
    assert names(run_under_chaos) == ["spec", "scenario", "sanitize",
                                      "max_restarts"]


def test_the_harness_ignores_no_argument(built):
    """The micro's workload argument and the restart budget both count,
    and every attempt's cluster is closed."""
    outcome = run_under_chaos(RunSpec("micro", overrides={"iters": 5}))
    assert outcome.correct and outcome.result.output == 10

    def crash():  # rules count their firings: a fresh one per run
        return ChaosScenario(rules=[
            ChaosRule(kind="crash", node=1, at_us=500.0)]).validate()

    with pytest.raises(NodeFailedError):
        run_under_chaos(RunSpec("micro"), crash(), max_restarts=0)
    outcome = run_under_chaos(RunSpec("micro"), crash(), max_restarts=1)
    assert outcome.correct and len(outcome.attempts) == 2
    assert [len(c.processes) for c in built] == [0, 0, 0, 0]


def test_chaos_cli_prints_the_report_of_a_lost_run(capsys):
    code = chaos_main(["--app", "kmeans", "--nodes", "4", "--crash-node", "2",
                       "--crash-at", "3000", "--max-restarts", "0"])
    captured = capsys.readouterr()
    assert code == 1
    assert "KMN: did not survive the scenario" in captured.err
    assert '"crashed": [2]' in captured.out


def test_the_micro_survives_or_fails_like_an_app(capsys):
    """One survive/restart path: the default micro under a fail-stop
    exits 1 with the diagnostic and the report when no restart is left,
    and completes on its second attempt when one is."""
    crash = ["--crash-node", "1", "--crash-at", "500"]
    assert chaos_main([*crash, "--max-restarts", "0"]) == 1
    captured = capsys.readouterr()
    assert "micro: did not survive the scenario" in captured.err
    assert "Traceback" not in captured.err
    assert '"crashed": [1]' in captured.out
    assert chaos_main([*crash, "--max-restarts", "1"]) == 0
    out = capsys.readouterr().out
    assert "micro: attempt 2: completed" in out
    assert "micro initial nodes=2: elapsed=" in out


# ---------------------------------------------------------------------------
# no CLI gained or lost a flag

RUN_FLAGS = {"--app", "--variant", "--nodes", "--scale", "--directory"}
OBS_FLAGS = RUN_FLAGS | {"--app-arg"}
FLAG_SETS = {
    (apps_main, ()): {"--nodes", "--variant", "--threads-per-node", "--scale"},
    (bench_main, ()): {"--apps", "--nodes", "--scale", "--directory"},
    (chaos_main, ()): RUN_FLAGS | {
        "--seed", "--app-arg", "--no-sanitize", "--max-restarts", "--scenario",
        "--policy", "--drop", "--drop-nth", "--delay", "--duplicate",
        "--degrade", "--crash-node", "--crash-at"},
    (obs_main, ("run",)): OBS_FLAGS | {"--out"},
    (obs_main, ("report",)): OBS_FLAGS | {"--input", "--limit"},
    (obs_main, ("export",)): OBS_FLAGS | {"--input", "--out", "--scope"},
    (obs_main, ("manifest",)): OBS_FLAGS | {"--out", "--label", "--no-lens"},
    (obs_main, ("top",)): OBS_FLAGS | {"--interval-us", "--limit",
                                        "--window-us"},
    (obs_main, ("diff",)): {"--threshold", "--limit", "--check"},
    (serve_main, ()): {
        "--tenants", "--nodes", "--seed", "--requests", "--rate",
        "--workers-per-node", "--queue-capacity", "--items",
        "--request-items", "--policy", "--slo-p99-us", "--burst-at-us",
        "--burst-for-us", "--burst-x", "--directory", "--chaos",
        "--crash-node", "--crash-at-us", "--loss-policy", "--scope",
        "--trace-out", "--out", "--quiet"},
}


@pytest.mark.parametrize(
    "main, command", list(FLAG_SETS),
    ids=[f"{m.__module__.split('.')[1]}{'-' + c[0] if c else ''}"
         for m, c in FLAG_SETS])
def test_help_flag_set_is_the_parents(main, command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([*command, "--help"])
    assert exit_info.value.code == 0
    usage = capsys.readouterr().out.split("\n\n", 1)[0]
    assert set(re.findall(r"\[(--[a-z0-9-]+)", usage)) == FLAG_SETS[
        main, command]


# ---------------------------------------------------------------------------
# bad input is a usage error on every run-taking CLI

RUN_TAKING = [
    pytest.param(apps_main, [], "app", id="apps"),
    pytest.param(bench_main, ["figure2"], "apps", id="bench"),
    pytest.param(chaos_main, [], "app", id="chaos"),
] + [pytest.param(obs_main, [command], "app", id=f"obs-{command}")
     for command in OBS_RUN_COMMANDS]


def _usage_error(main, argv, capsys):
    """Exit status 2, a usage line, one error line, no traceback."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: python -m repro.")
    assert "Traceback" not in err
    return err.strip().splitlines()[-1]


def _naming(main, dest, name):
    """The arguments that name app *name* on this CLI."""
    return [name] if main is apps_main else [f"--{dest}", name]


@pytest.mark.parametrize("main, argv, dest", RUN_TAKING)
def test_zero_nodes_is_a_usage_error(main, argv, dest, capsys):
    last = _usage_error(
        main, [*argv, *_naming(main, dest, "EP"), "--nodes", "0"], capsys)
    assert "argument --nodes: must be >= 1, got 0" in last


@pytest.mark.parametrize("main, argv, dest", RUN_TAKING)
def test_unknown_app_is_a_usage_error(main, argv, dest, capsys):
    last = _usage_error(main, [*argv, *_naming(main, dest, "nosuch")], capsys)
    assert "unknown app 'nosuch'; choose from GRP, KMN" in last


@pytest.mark.parametrize("command", OBS_RUN_COMMANDS)
@pytest.mark.parametrize("pair, complaint", [
    ("n_points", "argument --app-arg: expects KEY=VALUE, got 'n_points'"),
    ("=3", "argument --app-arg: expects KEY=VALUE, got '=3'"),
    ("n_pints=3", "KMN takes no workload argument n_pints"),
])
def test_bad_app_arg_is_a_usage_error(command, pair, complaint, capsys):
    last = _usage_error(
        obs_main, [command, "--app", "KMN", "--app-arg", pair], capsys)
    assert complaint in last


SMALL_SERVE = ["--nodes", "2", "--requests", "4", "--quiet"]


@pytest.mark.parametrize("main, argv, complaint", [
    # obs: sim-time flags are positive
    (obs_main, ["top", "--app", "pagefault", "--interval-us", "0"],
     "argument --interval-us: must be > 0, got 0"),
    (obs_main, ["top", "--app", "pagefault", "--window-us", "0"],
     "argument --window-us: must be > 0, got 0"),
    # a workload argument is the app's to take, spelled one way
    (obs_main, ["report", "--app", "pagefault", "--app-arg", "iters=5"],
     "pagefault takes no workload argument iters"),
    # chaos: a rule names a real message type; counts and delays parse
    (chaos_main, ["--drop", "no_such_type"],
     "unknown msg_type 'no_such_type' (one of "),
    (chaos_main, ["--delay", "page_request:abc"],
     "argument --delay: expects MSG_TYPE:US, got 'page_request:abc'"),
    (chaos_main, ["--app", "EP", "--app-arg", "duration_us=5"],
     "EP takes no workload argument duration_us"),
    # serve: a tenant spec fails at construction, before any run
    (serve_main, [*SMALL_SERVE, "--tenants", "bogus:constant"],
     "unknown workload 'bogus'"),
    (serve_main, [*SMALL_SERVE, "--tenants", "kmn:wobble"],
     "unknown arrival curve 'wobble'"),
    (serve_main, [*SMALL_SERVE, "--workers-per-node", "0"],
     "workers_per_node must be at least 1, got 0"),
    (serve_main, [*SMALL_SERVE, "--queue-capacity", "0"],
     "queue_capacity must be at least 1, got 0"),
    (serve_main, [*SMALL_SERVE, "--rate", "-5"],
     "arrival rate must be positive, got -5.0"),
    (serve_main, [*SMALL_SERVE, "--items", "-4"],
     "items must be non-negative, got -4"),
    (serve_main, [*SMALL_SERVE, "--slo-p99-us", "-1"],
     "slo_p99_us must be positive and finite, got -1.0"),
])
def test_a_bad_flag_value_is_a_usage_error(main, argv, complaint, capsys):
    assert complaint in _usage_error(main, argv, capsys)


@pytest.mark.parametrize("main, argv, dest", RUN_TAKING)
def test_long_aliases_are_accepted_everywhere(main, argv, dest, capsys):
    """``kmeans`` parses on all four CLIs (``repro.apps`` and
    ``repro.bench`` used to refuse it); checked at the parser, not by
    running: a second bad flag must be the one complained about."""
    last = _usage_error(
        main, [*argv, *_naming(main, dest, "kmeans"), "--scale", "huge"],
        capsys)
    assert "argument --scale: invalid choice: 'huge'" in last
