"""The reliable request transport under injected wire faults: every
single-fault scenario must still produce the exact counter value, with the
retry/dedup counters showing the machinery actually engaged."""

import pytest

from repro.apps.common import RunSpec
from repro.chaos import run_under_chaos
from repro.chaos.scenario import ChaosError, ChaosRule, ChaosScenario
from repro.params import SimParams


MICRO = RunSpec("micro")


def _scenario(*rules, seed=3, **kw):
    return ChaosScenario(rules=list(rules), seed=seed, **kw).validate()


def test_empty_scenario_completes_clean():
    out = run_under_chaos(MICRO, _scenario())
    assert out.correct, out
    report = out.report
    assert report["injections"] == {}
    assert report["retransmissions"] == 0
    assert report["crashed"] == [] and report["failed"] == []


def test_dropped_request_is_retransmitted():
    out = run_under_chaos(
        MICRO,
        _scenario(ChaosRule(kind="drop", msg_type="page_request", nth=1))
    )
    assert out.correct, out
    report = out.report
    assert report["injections"] == {"drop": 1}
    assert report["retransmissions"] >= 1


def test_dropped_reply_resends_cached_reply():
    """Losing the *grant* must not re-execute the handler: the responder's
    duplicate filter answers the retransmitted request from its reply
    cache, and the count stays exact."""
    out = run_under_chaos(
        MICRO,
        _scenario(ChaosRule(kind="drop", msg_type="page_grant", nth=1))
    )
    assert out.correct, out
    report = out.report
    assert report["injections"] == {"drop": 1}
    assert report["retransmissions"] >= 1
    assert report["replies_resent"] >= 1


@pytest.mark.parametrize("backend", ["origin", "sharded"])
def test_dropped_grant_is_not_installed_after_its_revocation(backend):
    """KMN-initial@4 loses its first grant.  By the time the requester
    retransmits, the home has revoked the ownership that grant gave it, so
    the copy the home's reply cache re-sends is stale: the requester must
    ask again instead of installing it (on the sharded backend the revoked
    writer acks without its page, and the home's own copy is current).
    The sanitizer checks every transition of the run."""
    spec = RunSpec("KMN", "initial", 4, base=SimParams(directory=backend))
    out = run_under_chaos(
        spec, _scenario(ChaosRule(kind="drop", msg_type="page_grant", nth=1))
    )
    assert out.correct, out
    report = out.report
    assert report["injections"] == {"drop": 1}
    assert report["replies_resent"] == 1


def test_duplicated_request_is_suppressed():
    """A duplicated delivery must not double-apply the operation."""
    out = run_under_chaos(
        MICRO,
        _scenario(ChaosRule(kind="duplicate", msg_type="page_request", nth=1))
    )
    assert out.correct, out
    assert out.report["injections"] == {"duplicate": 1}


def test_delay_and_reorder_preserve_correctness():
    out = run_under_chaos(MICRO, _scenario(
        ChaosRule(kind="delay", msg_type="page_invalidate", nth=1,
                  delay_us=900.0),
        ChaosRule(kind="reorder", msg_type="page_request", nth=2),
    ))
    assert out.correct, out
    injected = out.report["injections"]
    assert injected == {"delay": 1, "reorder": 1}


def test_degraded_link_slows_but_completes():
    baseline = run_under_chaos(MICRO, _scenario())
    out = run_under_chaos(MICRO, _scenario(
        ChaosRule(kind="degrade", factor=50.0, times=None)
    ))
    assert out.correct, out
    assert out.report["injections"]["degrade"] > 0
    assert out.result.elapsed_us > baseline.result.elapsed_us


def test_probabilistic_drops_are_survivable():
    """A lossy link (every message class, 20% drop) still yields the exact
    count — the transport's job in one line."""
    out = run_under_chaos(MICRO, _scenario(
        ChaosRule(kind="drop", probability=0.2, times=None), seed=7,
    ))
    assert out.correct, out
    report = out.report
    assert report["injections"]["drop"] > 0
    # not every drop forces a retransmission (lost replies can be answered
    # from the dedup cache, lost keepalives are just skipped beats), but
    # some dropped request must have timed out and been resent
    assert report["retransmissions"] >= 1


def test_same_seed_same_schedule():
    """The whole run — injection choices included — is a function of the
    seed: two fresh runs of one scenario agree on sim time and counters."""
    def once():
        return run_under_chaos(MICRO, _scenario(
            ChaosRule(kind="drop", probability=0.15, times=None), seed=21,
        ))

    a, b = once(), once()
    assert a.correct and b.correct
    assert a.result.elapsed_us == b.result.elapsed_us
    assert a.report["injections"] == b.report["injections"]
    assert a.report["retransmissions"] == b.report["retransmissions"]


def test_scenario_validation_rejects_bad_rules():
    with pytest.raises(ChaosError):
        _scenario(ChaosRule(kind="flood"))
    with pytest.raises(ChaosError):
        _scenario(ChaosRule(kind="delay", delay_us=0.0))
    with pytest.raises(ChaosError):
        _scenario(ChaosRule(kind="degrade", factor=1.0))
    with pytest.raises(ChaosError):
        _scenario(ChaosRule(kind="crash", node=0, at_us=10.0))
    with pytest.raises(ChaosError):
        _scenario(ChaosRule(kind="crash", node=2))  # no time, no predicate


def test_scenario_json_round_trip():
    scenario = _scenario(
        ChaosRule(kind="drop", msg_type="page_request", nth=1),
        ChaosRule(kind="crash", node=2, at_us=500.0),
        seed=9, on_exclusive_loss="rollback",
    )
    clone = ChaosScenario.from_json(scenario.to_json())
    assert clone == scenario
    with pytest.raises(ChaosError):
        ChaosScenario.from_json('{"rules": [{"kind": "drop", "bogus": 1}]}')
