"""Smoke runs of the long-running scripts with tiny arguments."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

TINY_ARGS = {
    "bench_layers.py": ["--tiny", "--repeats", "1"],
    "run_axiom_suites.py": ["--models", "1", "--trials", "5", "--variants", "choquet"],
    "run_comparatives.py": ["--samples", "5", "--pairs", "20"],
    "run_identification.py": ["--grid", "2"],
}


def test_every_script_has_a_smoke_run():
    assert sorted(p.name for p in SCRIPTS.glob("*.py")) == sorted(TINY_ARGS)


@pytest.mark.parametrize("name", sorted(TINY_ARGS))
def test_script_exits_zero(name, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [name, *TINY_ARGS[name]])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    assert done.value.code == 0, capsys.readouterr().out
