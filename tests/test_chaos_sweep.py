"""Satellite sweep: drop each request-class control message exactly once
over the two-node pagefault micro, under both directory backends.  Every
run must finish with the exact counter value; when the rule found a message
to drop, the transport must have retransmitted."""

import pytest

from repro.apps.common import RunSpec
from repro.chaos import run_under_chaos
from repro.chaos.scenario import ChaosRule, ChaosScenario
from repro.core.directory import DIRECTORY_BACKENDS
from repro.net.messages import TIMEOUT_CLASSES

#: every request-class message the micro can put on the wire (PING is
#: benchmark-only traffic and never sent here)
SWEEP_TYPES = sorted(
    m.value for m in TIMEOUT_CLASSES if m.value != "ping"
)

#: types that only exist on the sharded backend's wire
SHARDED_ONLY = {"page_home_lookup"}


@pytest.mark.parametrize("directory", DIRECTORY_BACKENDS)
@pytest.mark.parametrize("msg_type", SWEEP_TYPES)
def test_drop_each_request_type_once(msg_type, directory):
    rule = ChaosRule(kind="drop", msg_type=msg_type, nth=1)
    scenario = ChaosScenario(rules=[rule], seed=1).validate()
    out = run_under_chaos(RunSpec("micro", directory=directory), scenario)
    assert out.correct, (msg_type, directory, out)
    report = out.report
    if msg_type in SHARDED_ONLY and directory != "sharded":
        assert rule.fired == 0, "origin backend has no home lookups"
        return
    # the micro exercises every request class: each rule finds its target
    assert rule.fired == 1, (msg_type, directory, report["events"])
    assert report["injections"] == {"drop": 1}
    assert report["retransmissions"] >= 1


@pytest.mark.parametrize("directory", DIRECTORY_BACKENDS)
def test_drop_every_type_in_one_run(directory):
    """All single-drop rules at once still converge to the exact count."""
    rules = [
        ChaosRule(kind="drop", msg_type=t, nth=1)
        for t in SWEEP_TYPES
    ]
    scenario = ChaosScenario(rules=rules, seed=2).validate()
    out = run_under_chaos(RunSpec("micro", directory=directory), scenario)
    assert out.correct, (directory, out)
    fired = sum(r.fired for r in rules)
    expected = len(SWEEP_TYPES) - (0 if directory == "sharded"
                                   else len(SHARDED_ONLY))
    assert fired == expected
