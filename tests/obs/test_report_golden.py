"""The reporting surfaces print the numbers ``report_golden.json`` pins."""

import pytest

from repro import obs
from tests.obs.golden import (
    REPORT_SCENARIOS,
    load_report_golden,
    report_surfaces,
)


@pytest.fixture(autouse=True)
def _clean_switchboard():
    yield
    obs.disable()
    obs.reset()


def test_golden_file_covers_the_report_scenarios():
    assert sorted(load_report_golden()) == sorted(REPORT_SCENARIOS)


@pytest.mark.parametrize("scenario", sorted(REPORT_SCENARIOS))
def test_report_golden(scenario):
    assert report_surfaces(scenario) == load_report_golden()[scenario], (
        "a printed number moved; if intended, regenerate with "
        "`PYTHONPATH=src python tests/obs/golden.py --write-report`")
