"""Shared fixtures and helpers for the test suite.

Setting ``DEX_TEST_DIRECTORY=sharded`` in the environment runs every test
built through :func:`make_cluster` under the sharded coherence-directory
backend (the CI matrix exercises both), and an autouse fixture checks the
protocol invariants of every process at test teardown for whichever
backend ran.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import DexCluster, SimParams
from repro.runtime import MemoryAllocator

#: directory backend under test; "origin" unless the environment says so
TEST_DIRECTORY = os.environ.get("DEX_TEST_DIRECTORY", "origin")


def make_cluster(num_nodes: int = 4, **param_overrides) -> DexCluster:
    """A cluster with optional SimParams field overrides."""
    param_overrides.setdefault("directory", TEST_DIRECTORY)
    params = SimParams(**param_overrides)
    return DexCluster(num_nodes=num_nodes, params=params)


def run_main(cluster: DexCluster, main, *args):
    """Run *main(ctx, *args)* in a fresh process; returns (result, proc)."""
    proc = cluster.create_process()
    result = cluster.simulate(main, proc, *args)
    return result, proc


@pytest.fixture(autouse=True)
def check_protocol_invariants(monkeypatch):
    """Validate directory/PTE consistency for every cluster a test built.

    Every :class:`DexCluster` constructed during the test is recorded; at
    teardown, each of its processes gets a
    :meth:`ConsistencyProtocol.check_invariants` pass — but only when the
    cluster is quiescent (no pending events), since mid-operation state is
    legitimately inconsistent in tests that stop the engine early."""
    clusters = []
    original_init = DexCluster.__init__

    def recording_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        clusters.append(self)

    monkeypatch.setattr(DexCluster, "__init__", recording_init)
    yield
    for cluster in clusters:
        if cluster.engine._queue:
            continue
        for process in cluster.processes.values():
            process.protocol.check_invariants()


@pytest.fixture
def built(monkeypatch):
    """The clusters the launch plane built during the test, in order: it
    constructs whatever ``repro.apps.common.DexCluster`` names, the seam
    DexBench's traced run swaps a recording subclass into."""
    import repro.apps.common as launch_plane

    clusters = []

    class RecordingCluster(DexCluster):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            clusters.append(self)

    monkeypatch.setattr(launch_plane, "DexCluster", RecordingCluster)
    return clusters


@pytest.fixture(scope="session")
def repo_vet_check():
    """``(exit code, stdout)`` of one in-process ``repro.vet check`` over
    the repo, shared by every test that asks whether the repo is clean."""
    from repro.vet.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["check"])
    return code, out.getvalue()


def run_vet_module(*args):
    """``python -m repro.vet *args`` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run([sys.executable, "-m", "repro.vet", *args],
                          capture_output=True, text=True, env=env)


@pytest.fixture(scope="session")
def repo_vet_module_run():
    """One ``python -m repro.vet`` subprocess over the repo, shared by the
    entry-point tests."""
    return run_vet_module()


@pytest.fixture
def cluster():
    return make_cluster()


@pytest.fixture
def cluster2():
    return make_cluster(num_nodes=2)


@pytest.fixture
def proc(cluster):
    return cluster.create_process()


@pytest.fixture
def alloc(proc):
    return MemoryAllocator(proc)
