"""Every script under ``examples/`` runs: each ``main()`` is called in a
scratch working directory (``profile_and_optimize`` leaves ``trace.csv``),
with the k-means sweep cut down to a few thousand points."""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples")
                  .glob("*.py"))
#: module attribute -> the smaller value a test run uses
SMALLER = {"scale_out_kmeans": {"N_POINTS": 8_000}}


@pytest.mark.parametrize("path", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_the_example_runs(path, tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for name, value in SMALLER.get(path.stem, {}).items():
        monkeypatch.setattr(module, name, value)
    monkeypatch.chdir(tmp_path)
    module.main()
    assert capsys.readouterr().out
