"""The seeded-bug fixture corpus: every planted defect is detected,
every clean fixture passes with zero false positives, and the repo
itself is vet-clean."""

from pathlib import Path

import pytest

from repro.vet import ALL_RULES, GRAPH_RULES, build_context, run_rules, vet_repo
from repro.vet.legacy import LEGACY_RULES

FIXTURES = Path(__file__).parent / "lint_fixtures" / "vet"


def vet_fixture(*names):
    ctx = build_context([FIXTURES / name for name in names])
    return run_rules(ctx)


def rules_fired(violations):
    return sorted({v.rule for v in violations})


def test_registry_contains_all_rules():
    assert set(ALL_RULES) == set(GRAPH_RULES) | set(LEGACY_RULES)
    assert len(ALL_RULES) == 16


def test_dropped_wait_fixture():
    violations = [v for v in vet_fixture("fixture_dropped_wait.py")]
    assert rules_fired(violations) == ["dropped-wait"]
    by_line = {v.line: v.message for v in violations}
    # the acceptance case: a deliberately un-yielded blocking call
    assert 28 in by_line and "built and dropped" in by_line[28]
    # yield (not yield from) of a generator
    assert 34 in by_line and "yield from" in by_line[34]
    # bound but never driven
    assert 38 in by_line and "'pending'" in by_line[38]
    # blocking-ness propagates through a return wrapper
    assert 43 in by_line and "forward_transfer" in by_line[43]
    assert len(violations) == 4  # the sanctioned forms stay quiet


def test_orphan_msgtype_fixture():
    violations = vet_fixture("fixture_orphan_msgtype.py")
    assert rules_fired(violations) == ["orphan-message-type"]
    (v,) = violations
    assert "GHOST_SYNC" in v.message
    assert v.line == 11


def test_missing_handler_fixture():
    violations = vet_fixture("fixture_missing_handler.py")
    # whole-program rule pins the send site, legacy rule the definition
    assert rules_fired(violations) == [
        "handler-totality", "unhandled-message-type",
    ]
    totality = [v for v in violations if v.rule == "handler-totality"]
    assert len(totality) == 1 and totality[0].line == 13
    assert "EVICT_NOTICE" in totality[0].message


def test_unpaired_request_fixture():
    violations = vet_fixture("fixture_unpaired_request.py")
    assert rules_fired(violations) == ["reply-pairing"]
    (v,) = violations
    assert "FETCH_HINT" in v.message
    assert "wait forever" in v.message
    assert v.line == 25  # the .request call site


def test_dispatch_bypass_fixture():
    violations = vet_fixture("fixture_dispatch_bypass.py")
    assert rules_fired(violations) == ["inject-coverage"]
    messages = {v.line: v.message for v in violations}
    assert 18 in messages and "dispatch" in messages[18]
    assert 22 in messages and "Tracer.inject" in messages[22]
    assert len(violations) == 2


def test_missing_control_size_fixture():
    violations = vet_fixture("fixture_missing_control_size.py")
    assert rules_fired(violations) == ["chaos-reachability"]
    (v,) = violations
    assert "DATA_ACK" in v.message and "CONTROL_SIZES" in v.message


def test_chaos_bypass_fixture_needs_fabric_in_scope():
    # alone, _send_impl resolves to nothing — no violation (and no guess)
    assert vet_fixture("fixture_chaos_bypass.py") == []
    # scanned with the fabric that defines _send_impl, the cross-module
    # bypass becomes visible
    violations = vet_fixture("fixture_fabric.py", "fixture_chaos_bypass.py")
    assert rules_fired(violations) == ["chaos-reachability"]
    (v,) = violations
    assert "fixture_chaos_bypass.py" in v.path
    assert "_send_impl" in v.message


def test_flight_bypass_fixture_needs_fabric_in_scope():
    # constructing a _Flight launches a message past the chaos on_send
    # hook; the rule sees construction by bare name and through a module
    assert vet_fixture("fixture_flight_bypass.py") == []
    violations = vet_fixture("fixture_fabric.py", "fixture_flight_bypass.py")
    assert rules_fired(violations) == ["chaos-reachability"]
    assert [v.line for v in violations] == [11, 15]
    assert all("fixture_flight_bypass.py" in v.path and "_Flight" in v.message
               for v in violations)


def test_lens_sink_fixture():
    violations = vet_fixture("fixture_lens_sink.py")
    assert rules_fired(violations) == ["lens-sink-discipline"]
    by_line = {v.line: v.message for v in violations}
    # direct .append on a probe list, looked up or held
    assert 11 in by_line and "add_hook" in by_line[11]
    assert 12 in by_line and "_on_span_close" in by_line[12]
    # phase label spelled as a string literal
    assert 18 in by_line and "PathPhase" in by_line[18]
    # plain assignment counts as mutation too
    assert 24 in by_line and ".hooks[...]" in by_line[24]
    # the sanctioned forms (add_hook, phase=enum.value) stay quiet
    assert len(violations) == 4


def test_metric_discipline_fixture():
    violations = vet_fixture("fixture_metric_discipline.py")
    assert rules_fired(violations) == ["metric-discipline"]
    by_line = {v.line: v.message for v in violations}
    # ad-hoc stat dicts, exact name and suffix match
    assert 13 in by_line and "self.stats" in by_line[13]
    assert 15 in by_line and "request_counters" in by_line[15]
    # direct metric construction outside the obs layer
    assert 19 in by_line and "Gauge" in by_line[19]
    assert 20 in by_line and "registry.histogram" in by_line[20]
    # registry-family registration, unrelated dicts, and
    # collections.Counter (import-aware matching) all stay quiet
    assert len(violations) == 4


def test_serve_discipline_fixture():
    violations = vet_fixture("fixture_serve_discipline.py")
    assert rules_fired(violations) == ["serve-discipline"]
    by_line = {v.line: v.message for v in violations}
    # direct backlog mutation, call and wholesale-assignment forms
    assert 16 in by_line and "_backlog.append" in by_line[16]
    assert 21 in by_line and "_backlog.clear" in by_line[21]
    assert 33 in by_line and "queue-private" in by_line[33]
    # policy-only entry point called from a manager
    assert 25 in by_line and "evict_oldest" in by_line[25]
    # decision minted outside the policy layer
    assert 29 in by_line and "AdmissionDecision" in by_line[29]
    # ad-hoc tally instead of a registry counter
    assert 17 in by_line and "self.admitted" in by_line[17]
    # the sanctioned policy.decide path stays quiet
    assert len(violations) == 6


def test_lens_sink_baseline_suppression():
    # a [[suppress]] baseline entry silences the new rule like any other
    import datetime

    from repro.vet.baseline import Baseline, Suppression

    violations = vet_fixture("fixture_lens_sink.py")
    baseline = Baseline([Suppression(
        rule="lens-sink-discipline",
        path="fixture_lens_sink.py",
        reason="seeded fixture",
    )])
    reported, suppressed = baseline.apply(
        violations, today=datetime.date(2026, 8, 8)
    )
    assert reported == [] and len(suppressed) == len(violations)


def test_clean_fixtures_zero_false_positives():
    assert vet_fixture("fixture_clean.py") == []
    assert vet_fixture("fixture_fabric.py") == []


def test_whole_corpus_scan_detects_every_seeded_bug():
    # all fixtures in one whole-program scan: every seeded rule fires
    ctx = build_context([FIXTURES])
    fired = {v.rule for v in run_rules(ctx)}
    assert {
        "dropped-wait", "orphan-message-type", "handler-totality",
        "reply-pairing", "inject-coverage", "chaos-reachability",
        "lens-sink-discipline", "metric-discipline",
        "serve-discipline",
    } <= fired


def test_rule_subset_selection():
    violations = run_rules(
        build_context([FIXTURES / "fixture_missing_handler.py"]),
        ["handler-totality"],
    )
    assert rules_fired(violations) == ["handler-totality"]


def test_unknown_rule_rejected():
    ctx = build_context([FIXTURES / "fixture_clean.py"])
    with pytest.raises(ValueError, match="unknown rule"):
        run_rules(ctx, ["no-such-rule"])


def test_parse_error_reported_not_fatal(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def broken(:\n")
    violations = run_rules(build_context([bad]))
    assert [v.rule for v in violations] == ["parse-error"]


def test_repo_is_vet_clean():
    # the acceptance bar: the repo passes its own whole-program analysis
    # with no baseline entries at all
    assert vet_repo() == []
