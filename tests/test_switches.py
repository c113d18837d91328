"""The one switch parser (``repro.params.resolve_switch``): every spelling
each of the five ``SimParams`` switches accepts, what it resolves to, env
deferral, and each error message — plus the structural claim that nothing
else in ``src/repro`` reads the environment, and what ``SimParams`` itself
refuses at construction."""

import re
from pathlib import Path

import pytest

from repro.params import SWITCHES, SimParams, resolve_switch

SRC = Path(__file__).resolve().parents[1] / "src"

OFF = ("", "0", "off", "none", "false", "no", "OFF", "  No ")
YES = ("1", "on", "true", "yes", "ON", " 1 ")

#: switch -> (env var, {on-spelling: mode}, rejected text, ValueError tail);
#: chaos rejects nothing: other text is a scenario path, returned stripped
#: and case-preserved
TABLE = {
    "sanitize": (
        "DEX_SANITIZE",
        {**dict.fromkeys(YES + ("all",), "all"),
         "race": "race", "deadlock": "deadlock", "Race": "race"},
        ("bogus", "spans"),
        "'', '1'/'all', 'race', 'deadlock'",
    ),
    "trace": (
        "DEX_TRACE",
        dict.fromkeys(YES + ("all", "spans", "Spans"), "spans"),
        ("bogus", "race"),
        "'', '1'/'on'/'spans'",
    ),
    "lens": (
        "DEX_LENS", dict.fromkeys(YES + ("all",), "on"),
        ("bogus", "spans"),  # spans is a trace mode, not a lens mode
        "'', '1'/'on'",
    ),
    "scope": (
        "DEX_SCOPE", dict.fromkeys(YES + ("all",), "on"),
        ("bogus", "spans"),
        "'', '1'/'on'",
    ),
    "chaos": (
        "DEX_CHAOS",
        {**dict.fromkeys(YES, "on"),
         "scenario.json": "scenario.json", " Dir/Drop.JSON ": "Dir/Drop.JSON",
         "all": "all"},
        (),
        None,
    ),
}


def test_table_covers_every_switch():
    assert set(TABLE) == set(SWITCHES)
    assert {name: s.env for name, s in SWITCHES.items()} == {
        name: row[0] for name, row in TABLE.items()
    }


@pytest.mark.parametrize("name", sorted(TABLE))
def test_switch_spellings(name, monkeypatch):
    env, on, rejected, expected = TABLE[name]
    monkeypatch.delenv(env, raising=False)
    for text in OFF:
        assert resolve_switch(name, text) == ""
    for text, mode in on.items():
        assert resolve_switch(name, text) == mode
    for text in rejected:
        with pytest.raises(ValueError) as err:
            resolve_switch(name, text)
        assert str(err.value) == (
            f"unknown {name} mode {text!r}; expected one of {expected}"
        )


@pytest.mark.parametrize("name", sorted(TABLE))
def test_none_defers_to_the_environment(name, monkeypatch):
    env, on, rejected, _ = TABLE[name]
    monkeypatch.delenv(env, raising=False)
    assert resolve_switch(name, None) == ""  # unset = off
    for text, mode in on.items():
        monkeypatch.setenv(env, text)
        assert resolve_switch(name, None) == mode
        # an explicit field value never consults the environment
        assert resolve_switch(name, "") == ""
    for text in rejected:
        monkeypatch.setenv(env, text)
        with pytest.raises(ValueError, match=f"unknown {name} mode"):
            resolve_switch(name, None)
        assert resolve_switch(name, "0") == ""


def _sources():
    return sorted((SRC / "repro").rglob("*.py"))


def test_only_params_reads_the_environment():
    readers = [
        str(path.relative_to(SRC)) for path in _sources()
        if re.search(r"os\.environ|getenv", path.read_text())
    ]
    assert readers == ["repro/params.py"]


def test_the_only_env_knobs_are_the_five_switches():
    names = set()
    for path in _sources():
        names.update(re.findall(r"\bDEX_[A-Z_]+", path.read_text()))
    assert names == {s.env for s in SWITCHES.values()}


@pytest.mark.parametrize("field, value, complaint", [
    ("link_bandwidth", 0.0, "must be positive, got 0.0"),
    ("dram_bandwidth", -1.0, "must be positive"),
    ("memcpy_bandwidth", 0, "must be positive"),
    ("page_size", 0, "must be positive"),
    ("cores_per_node", 0, "must be positive"),
    ("wire_latency", -0.1, "must be non-negative, got -0.1"),
    ("verb_send_overhead", -1.0, "must be non-negative"),
    ("fault_trap_cost", -2.0, "must be non-negative"),
    ("fault_retry_backoff", -130.0, "must be non-negative"),
    ("remote_worker_setup_cost", -1.0, "must be non-negative"),
    ("send_pool_chunks", 0, "must be at least 1, got 0"),
    ("recv_pool_chunks", -3, "must be at least 1"),
    ("rdma_sink_chunks", 0, "must be at least 1"),
    ("directory", "home", "unknown directory 'home'.*'origin', 'sharded'"),
    ("directory_shards", 0, "must be at least 1"),
    ("retry_max_attempts", 0, "must be at least 1"),
    ("wire_latency", float("inf"), "must be finite, got inf"),
    ("fault_trap_cost", float("nan"), "must be finite, got nan"),
    ("protocol_handler_cost", float("-inf"), "must be finite"),
    ("link_bandwidth", float("inf"), "must be finite"),
    ("home_lookup_cost", -1.2, "must be non-negative"),
    ("retry_timeout_ctl_us", -80.0, "must be non-negative"),
    ("lease_check_us", float("nan"), "must be finite"),
    ("lease_timeout_us", 150.0, r"must exceed lease_interval_us \(150.0\)"),
    ("lease_interval_us", 600.0, "lease_timeout_us must exceed"),
])
def test_simparams_refuses_a_bad_field_at_construction(field, value, complaint):
    """One ValueError naming the field, from the constructor and from
    ``copy`` — not a ZeroDivisionError or a hang somewhere mid-run."""
    for build in (lambda: SimParams(**{field: value}),
                  lambda: SimParams().copy(**{field: value})):
        with pytest.raises(ValueError, match=complaint) as refusal:
            build()
        assert field in str(refusal.value)


def test_every_model_constant_a_process_sleeps_on_is_validated():
    """``yield params.<field>`` is a private sleep, and a bad delay fails one
    simulated process mid-run — so every field model code yields (and every
    latency / cost / overhead / bandwidth field by name) is one the
    constructor refuses when negative, NaN or infinite."""
    import ast
    from dataclasses import fields

    names = {f.name for f in fields(SimParams)}
    yielded = {
        node.attr
        for path in _sources()
        for gen in ast.walk(ast.parse(path.read_text()))
        if isinstance(gen, ast.Yield) and gen.value is not None
        for node in ast.walk(gen.value)
        if isinstance(node, ast.Attribute) and node.attr in names
    }
    assert len(yielded) >= 20  # the protocol, migration and verb costs
    by_name = {n for n in names if n.endswith(
        ("_cost", "_overhead", "_latency", "_backoff", "_bandwidth"))}
    for field in sorted(yielded | by_name):
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=field):
                SimParams(**{field: bad})


def test_simparams_accepts_the_edges_it_should():
    SimParams(wire_latency=0.0, fault_retry_backoff=0.0, send_pool_chunks=1,
              directory="sharded", directory_shards=1, retry_max_attempts=1,
              lease_interval_us=599.9)
