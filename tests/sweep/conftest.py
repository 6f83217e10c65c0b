import multiprocessing

import pytest

from repro.sweep.scenarios import SCENARIOS, Scenario


@pytest.fixture
def crashing(monkeypatch, tmp_path):
    """Register the test-only ``crashing`` row (``tests/sweep/crashing.py``)
    and return its ``armed`` file: delete it and no worker dies."""
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched registry reaches pool workers only by fork")
    monkeypatch.setitem(SCENARIOS, "crashing", Scenario(
        "tests.sweep.crashing:run_crashing", to_dict="builtins:dict"))
    armed = tmp_path / "armed"
    armed.touch()
    return armed
