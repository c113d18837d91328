"""DexVet's rules against the seeded-bug corpus under ``lint_fixtures/``.

One table gives every fixture's exact findings: each planted defect is
reported at its line by its rule (the fragment pins the message), each
clean fixture reports nothing, and together the fixtures trip every
registered rule.  The repo itself is vet-clean."""

import re
from pathlib import Path

import pytest

from repro.vet import ALL_RULES, REGISTRY, build_context, run_rules

FIXTURES = Path(__file__).parent / "lint_fixtures"

#: fixture (or files scanned together; findings land in the last one)
#: -> its findings as (line, rule, message fragment), in report order
CORPUS = {
    "fixture_bad_yield.py": [
        (8, "yield-discipline", "bare yield"),
        (9, "yield-discipline", "yield None"),
        (10, "yield-discipline", "yield 'soon'"),
        (11, "yield-discipline", "yield -1.0"),
    ],
    "fixture_directory_touch.py": [
        (6, "directory-encapsulation", "'.directory_shard'"),
        (10, "directory-encapsulation", "'._lru'"),
    ],
    # the reads (isenabled, get_count, get_stats) stay quiet
    "fixture_gc_discipline.py": [
        (6, "gc-discipline", "'gc.freeze'"),
        (10, "gc-discipline", "'gc.collect'"),
        (11, "gc-discipline", "'gc.set_threshold'"),
    ],
    # the guard split over two lines, and a held observer, too
    "fixture_observer_guard.py": [
        (8, "lens-sink-discipline", "guard on observer 'sanitizer'"),
        (10, "lens-sink-discipline", "guard on observer 'deadlocks'"),
        (12, "lens-sink-discipline", "guard on observer 'detector'"),
        (14, "lens-sink-discipline", "guard on observer 'scope'"),
        (21, "lens-sink-discipline", "guard on observer '_scope'"),
    ],
    "fixture_nondeterminism.py": [
        (4, "sim-nondeterminism", "import of the unseeded 'random' module"),
        (9, "sim-nondeterminism", "'random.random()'"),
        (9, "sim-nondeterminism", "'time.time()'"),
    ],
    "fixture_retry_discipline.py": [
        (26, "reply-pairing", "MsgType.SYN"),
        (33, "reply-pairing", "MsgType.NAK"),
        # caught through the msg = Message(...) binding; SYN is declared
        (33, "retry-discipline", "MsgType.NAK"),
        # the hand-rolled loop; the constant-delay one is fine
        (40, "retry-discipline", "retransmit loop scales its own delay"),
    ],
    "fixture_span_discipline.py": [
        (7, "span-discipline", "'tracer.span(...)' outside a with"),
        (8, "span-discipline", "'engine.span(...)' outside a with"),
        (14, "span-discipline", "'tracer.open_span(...)' outside net/fabric.py"),
        (15, "span-discipline", "'tracer.close_span(...)' outside net/fabric.py"),
        (19, "span-discipline", "dict key 'trace_id'"),
        (19, "span-discipline", "dict key 'parent_span'"),
        (20, "span-discipline", "dict key 'span_id'"),
    ],
    "fixture_unhandled_message.py": [
        (11, "orphan-message-type", "MsgType.HELLO"),
        (12, "orphan-message-type", "MsgType.ORPHAN"),
    ],
    # the plain class and the slot-less dataclass; not the slotted class,
    # the dataclass(slots=True), the enum or the exception
    "sim/fixture_missing_slots.py": [
        (8, "slots-discipline", "class BadEvent"),
        (26, "slots-discipline", "class BadRecord"),
    ],
    # by def and by binding
    "sim/fixture_awaiter.py": [
        (15, "yield-discipline", "'__next__' in an engine-core package"),
        (22, "yield-discipline", "'__next__' in an engine-core package"),
    ],
    # every spelling of the axis; axis 1, axis 0 and the builtin's start
    # stay quiet
    "apps/fixture_distance_kernel.py": [
        (10, "distance-kernel", "'d.sum(...)' over axis 2"),
        (11, "distance-kernel", "'np.sum(...)' over axis 2"),
        (12, "distance-kernel", "'d.sum(...)' over axis 2"),
        (13, "distance-kernel", "'np.sum(...)' over axis 2"),
    ],
    # the counter and the pool a cluster holds stay quiet
    "core/fixture_global_state.py": [
        (10, "sim-nondeterminism", "module-level '_POOL = []'"),
        (11, "sim-nondeterminism", "module-level '_BY_ID: dict = {}'"),
        (12, "sim-nondeterminism", "module-level '_SEEN = set()'"),
        (13, "sim-nondeterminism", "'itertools.count(...)' not held"),
        (14, "sim-nondeterminism", "'count(...)' not held"),
        (24, "sim-nondeterminism", "'itertools.count(...)' not held"),
    ],
    # under core/ a sleep has one spelling, even outside src/
    "core/fixture_timeout_calls.py": [
        (8, "yield-discipline", "a private sleep spelled the old way"),
        (9, "yield-discipline", "'engine.timeout(...)' outside any_of/all_of"),
        (10, "yield-discipline", "'engine.timeout(...)' outside any_of/all_of"),
        (16, "yield-discipline", "'engine.timeout(...)' outside any_of/all_of"),
    ],
    # the function-level import, too
    "core/fixture_tracing_seam.py": [
        (7, "span-discipline", "import of 'repro.obs.tracing'"),
        (8, "span-discipline", "import of 'repro.obs.tracing'"),
        (12, "span-discipline", "'maybe_span' is the retired tracing seam"),
        (14, "span-discipline", "'proc.obs' is the retired tracing seam"),
        (15, "span-discipline", "'NULL_SPAN' is the retired tracing seam"),
        (20, "span-discipline", "import of 'repro.obs.tracing'"),
    ],
    # alone, _send_impl and _Flight resolve to nothing: no finding, no guess
    "vet/fixture_chaos_bypass.py": [],
    "vet/fixture_flight_bypass.py": [],
    # scanned with the fabric that defines them, the bypass is visible,
    # by bare name and through a module
    ("vet/fixture_fabric.py", "vet/fixture_chaos_bypass.py"): [
        (9, "chaos-reachability", "fabric-internal '_send_impl(...)'"),
    ],
    ("vet/fixture_fabric.py", "vet/fixture_flight_bypass.py"): [
        (11, "chaos-reachability", "fabric-internal '_Flight(...)'"),
        (15, "chaos-reachability", "fabric-internal '_Flight(...)'"),
    ],
    "vet/fixture_clean.py": [],
    "vet/fixture_fabric.py": [],
    "vet/fixture_dispatch_bypass.py": [
        (18, "inject-coverage", "direct '.dispatch(...)'"),
        (22, "inject-coverage", "no Tracer.inject call"),
    ],
    "vet/fixture_dropped_wait.py": [
        (28, "dropped-wait", "built and dropped"),
        (34, "dropped-wait", "use 'yield from transfer_page(...)'"),
        (38, "dropped-wait", "bound to 'pending'"),
        # blocking-ness propagates through a return wrapper
        (43, "dropped-wait", "'forward_transfer(...)'"),
    ],
    "vet/fixture_lens_sink.py": [
        (11, "lens-sink-discipline", "'.hooks[...]'"),
        (12, "lens-sink-discipline", "'._on_span_close'"),
        (18, "lens-sink-discipline", "PathPhase"),
        (24, "lens-sink-discipline", "'.hooks[...]'"),
    ],
    # collections.Counter and registry families stay quiet
    "vet/fixture_metric_discipline.py": [
        (13, "metric-discipline", "'self.stats'"),
        (15, "metric-discipline", "'self.request_counters'"),
        (19, "metric-discipline", "registry.histogram"),
    ],
    "vet/fixture_missing_control_size.py": [
        (10, "chaos-reachability", "MsgType.DATA_ACK has no CONTROL_SIZES"),
    ],
    "vet/fixture_missing_handler.py": [
        (13, "handler-totality", "MsgType.EVICT_NOTICE is sent"),
    ],
    "vet/fixture_orphan_msgtype.py": [
        (11, "orphan-message-type", "MsgType.GHOST_SYNC is never sent"),
    ],
    "vet/fixture_serve_discipline.py": [
        (16, "serve-discipline", "'._backlog.append(...)'"),
        (17, "serve-discipline", "'self.admitted'"),
        (21, "serve-discipline", "'._backlog.clear(...)'"),
        (25, "serve-discipline", "'.evict_oldest(...)'"),
        (29, "serve-discipline", "AdmissionDecision minted"),
        (33, "serve-discipline", "queue-private"),
    ],
    # the function-level numpy.random import stays quiet
    "vet/fixture_third_party.py": [
        (5, "third-party-layering", "import of 'numpy'"),
        (6, "third-party-layering", "'scipy.special': scipy is a test oracle"),
        (15, "third-party-layering", "'scipy.stats'"),
        (16, "third-party-layering", "elsewhere a function-level numpy.random"),
    ],
    "vet/fixture_unpaired_request.py": [
        (25, "reply-pairing", "MsgType.FETCH_HINT is awaited via .request()"),
    ],
}


def _files(key):
    return (key,) if isinstance(key, str) else key


def vet(*paths, rules=None, repo_mode=False):
    return run_rules(build_context(paths, repo_mode=repo_mode), rules)


@pytest.mark.parametrize(
    "key", list(CORPUS), ids=lambda key: "+".join(Path(f).stem for f in _files(key)))
def test_fixture_findings(key):
    files = [FIXTURES / name for name in _files(key)]
    violations = vet(*files)
    assert [(v.line, v.rule) for v in violations] == \
        [(line, rule) for line, rule, _ in CORPUS[key]]
    for v, (_, _, fragment) in zip(violations, CORPUS[key]):
        assert fragment in v.message and v.path == str(files[-1]), v.format()


def test_corpus_table_covers_every_fixture():
    listed = {name for key in CORPUS for name in _files(key)}
    assert listed == {p.relative_to(FIXTURES).as_posix()
                      for p in FIXTURES.rglob("*.py")}


def test_every_rule_is_tripped_by_a_fixture():
    tripped = {rule for rows in CORPUS.values() for _, rule, _ in rows}
    assert tripped == set(ALL_RULES)


def test_registry_contains_all_rules():
    assert ALL_RULES == tuple(REGISTRY)
    assert len(ALL_RULES) == 18


def test_clean_fixtures_zero_false_positives():
    for name in ("fixture_clean.py", "fixture_fabric.py"):
        fixture = FIXTURES / "vet" / name
        assert vet(fixture) == [] and vet(fixture, repo_mode=True) == []


def test_yield_discipline_fixture():
    # vetted as part of src/, a Timeout no any_of races and no all_of
    # joins is a finding: the one-argument inline one is a sleep spelled
    # the old way, and the value-carrying one is a sleep as well
    fixture = FIXTURES / "fixture_bad_yield.py"
    in_src = vet(fixture, repo_mode=True)
    old_way, carried = [v for v in in_src if v not in vet(fixture)]
    assert (old_way.line, carried.line) == (16, 17) and len(in_src) == 6
    assert "yield engine.timeout(...): a private sleep" in old_way.message
    assert "outside any_of/all_of" in carried.message


def test_yield_discipline_lets_a_raced_or_joined_timeout_through(tmp_path):
    # the two shapes src/ keeps: a deadline any_of races (bound to a name
    # first), and a compute slice all_of joins with the DRAM transfer
    deadlines = ("def request(engine, reply):\n"
                 "    deadline = engine.timeout(30.0)\n"
                 "    try:\n"
                 "        yield engine.any_of((reply, deadline))\n"
                 "    finally:\n"
                 "        deadline.cancel()\n"
                 "\n"
                 "def compute(engine, dram, cpu_us):\n"
                 "    yield engine.all_of([dram.consume(8), engine.timeout(cpu_us)])\n"
                 "\n"
                 "def elsewhere(engine):\n"
                 "    deadline = engine.timeout(1.0)\n"
                 "    yield deadline\n")
    flagged = vet(_write(tmp_path / "core" / "deadlines.py", deadlines))
    # the name is raced in request(), not in elsewhere(): scopes are apart
    assert [(v.line, v.rule) for v in flagged] == [(12, "yield-discipline")]


def test_observer_guards_and_the_tracer_import_have_their_sanctioned_homes(tmp_path):
    guard = "def close(self):\n    if self.scope is not None:\n        self.scope = None\n"
    for home in ("core/cluster.py", "serve/manager.py", "obs/manifest.py",
                 "check/sanitizer.py"):
        assert vet(_write(tmp_path / home, guard)) == []
    assert [v.rule for v in vet(_write(tmp_path / "core" / "process.py", guard))] \
        == ["lens-sink-discipline"]
    builds = "from repro.obs.tracing import Tracer\n"
    assert vet(_write(tmp_path / "a" / "core" / "cluster.py", builds)) == []
    assert [v.rule for v in vet(_write(tmp_path / "a" / "chaos" / "x.py", builds))] \
        == ["span-discipline"]
    # outside sim/, core/, net/ and chaos/ the import is not this rule's
    assert vet(_write(tmp_path / "a" / "serve" / "report.py", builds)) == []


#: the CI grep gates these rules replaced, kept as their oracle:
#: fixture -> (rule, [(regex, the grep's own exclusion or None)])
GREP_GATES = {
    "core/fixture_timeout_calls.py": ("yield-discipline", [(r"\.timeout\(", None)]),
    "core/fixture_global_state.py": ("sim-nondeterminism", [
        (r"itertools\.count\(",
         r"^\s*self\.[A-Za-z_][A-Za-z0-9_]* = itertools\.count\("),
        (r"^[A-Za-z_][A-Za-z0-9_]*(:[^=]*)? = (\[\]|\{\})", None),
    ]),
    "apps/fixture_distance_kernel.py": ("distance-kernel", [(r"sum\(axis=2\)", None)]),
    "sim/fixture_awaiter.py": ("yield-discipline", [(r"def __next__", None)]),
    "fixture_observer_guard.py": ("lens-sink-discipline", [
        (r"(sanitizer|deadlocks|detector) is (not )?None|scope is (not )?None",
         None),
    ]),
    "core/fixture_tracing_seam.py": ("span-discipline", [
        (r"maybe_span|NULL_SPAN|\bproc\.obs\b", None),
        (r"^(from|import) repro\.obs\.tracing", None),
    ]),
}


@pytest.mark.parametrize("fixture", list(GREP_GATES), ids=lambda f: Path(f).stem)
def test_no_rule_is_looser_than_the_grep_gate_it_replaced(fixture):
    rule, patterns = GREP_GATES[fixture]
    path = FIXTURES / fixture
    grepped = {
        number for number, line in enumerate(path.read_text().splitlines(), 1)
        for pattern, unless in patterns
        if re.search(pattern, line.partition("#")[0])
        and not (unless and re.search(unless, line))
    }
    flagged = {v.line for v in vet(path) if v.rule == rule}
    assert grepped and grepped <= flagged
    # and each fixture seeds a spelling its regex could not see — but the
    # timeout grep saw every call (it only counted them, up to 6)
    assert flagged - grepped or rule == "yield-discipline" and "timeout" in fixture


def _write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def test_span_discipline_lets_the_fabric_open_and_close_by_hand(tmp_path):
    by_hand = ("def stage(tracer, flight):\n"
               "    span = tracer.open_span(flight, 'net.wire', 0, -1, {})\n"
               "    tracer.close_span(flight, span)\n")
    assert vet(_write(tmp_path / "net" / "fabric.py", by_hand)) == []
    flagged = vet(_write(tmp_path / "net" / "verbs.py", by_hand))
    assert [v.rule for v in flagged] == ["span-discipline"] * 2


def test_span_discipline_repo_mode_exempts_obs(tmp_path):
    fixture = _write(tmp_path / "obs" / "machinery.py",
                     "def serialize(s):\n    return {'trace_id': s.trace_id}\n")
    assert [v.rule for v in vet(fixture)] == ["span-discipline"]
    assert vet(fixture, repo_mode=True) == []


def test_slots_discipline_scope_is_engine_core_paths(tmp_path):
    # a slot-less class outside sim/ (and not net/messages.py) is not this
    # rule's business; in net/messages.py it is
    slot_less = "class SlotLess:\n    def __init__(self):\n        self.x = 1\n"
    assert vet(_write(tmp_path / "plain_module.py", slot_less)) == []
    flagged = vet(_write(tmp_path / "net" / "messages.py", slot_less))
    assert [v.rule for v in flagged] == ["slots-discipline"]


def test_a_scanned_directory_scopes_rules_from_its_root(tmp_path):
    # a checkout under a directory named sim/ is not engine core: scoped
    # rules read the path below the scan root, a lone file the path given
    slot_less = "class SlotLess:\n    def __init__(self):\n        self.x = 1\n"
    package = tmp_path / "sim" / "checkout" / "repro"
    module = _write(package / "params.py", slot_less)
    assert vet(package) == [] and vet(package, repo_mode=True) == []
    assert [v.rule for v in vet(module)] == ["slots-discipline"]


def test_repo_mode_exempts_offline_tooling(tmp_path):
    # tools/ reads no wall clocks today, but the exemption is what lets
    # e.g. bench harnesses time themselves
    fixture = _write(tmp_path / "tools" / "offline.py",
                     "import time\n\ndef stamp():\n    return time.time()\n")
    assert [v.rule for v in vet(fixture)] == ["sim-nondeterminism"]
    assert vet(fixture, repo_mode=True) == []


def test_whole_corpus_scan_detects_every_seeded_bug():
    # all fixtures in one whole-program scan: every seeded rule fires
    fired = {v.rule for v in vet(FIXTURES / "vet")}
    assert {
        "dropped-wait", "orphan-message-type", "handler-totality",
        "reply-pairing", "inject-coverage", "chaos-reachability",
        "lens-sink-discipline", "metric-discipline",
        "serve-discipline", "third-party-layering",
    } <= fired


def test_rule_subset_selection():
    fixture = FIXTURES / "fixture_retry_discipline.py"
    violations = vet(fixture, rules=["retry-discipline"])
    assert [v.line for v in violations] == [33, 40]
    assert {v.rule for v in violations} == {"retry-discipline"}


def test_unknown_rule_rejected():
    with pytest.raises(ValueError, match="unknown rule"):
        vet(FIXTURES / "vet" / "fixture_clean.py", rules=["no-such-rule"])


def test_parse_error_reported_not_fatal(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def broken(:\n")
    assert [v.rule for v in vet(bad)] == ["parse-error"]


def test_repo_is_vet_clean(repo_vet_check):
    # the acceptance bar: the repo passes its own whole-program analysis
    # (the one in-process whole-repo run, shared through conftest)
    code, out = repo_vet_check
    assert code == 0, out
