"""Smoke tests: every example script must run (or at least compile)."""

import pathlib
import py_compile
import runpy
import sys

import pytest

pytestmark = pytest.mark.slow

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


def test_examples_directory_contents():
    names = {p.name for p in EXAMPLES.glob("*.py")}
    assert {"quickstart.py", "cc_division_demo.py", "ack_reduction_demo.py",
            "innetwork_retx_demo.py", "parameter_tuning.py"} <= names


@pytest.mark.parametrize("script", sorted(p.name for p in EXAMPLES.glob("*.py")))
def test_examples_compile(script):
    py_compile.compile(str(EXAMPLES / script), doraise=True)


def _run(script, argv=()):
    old_argv = sys.argv
    sys.argv = [script, *argv]
    try:
        runpy.run_path(str(EXAMPLES / script), run_name="__main__")
    finally:
        sys.argv = old_argv


def test_quickstart_runs(capsys):
    _run("quickstart.py")
    out = capsys.readouterr().out
    assert "decode matches ground truth" in out
    assert "threshold-exceeded" in out


def test_parameter_tuning_runs(capsys):
    _run("parameter_tuning.py")
    out = capsys.readouterr().out
    assert "collision probability" in out
    assert "82 B" in out
