"""Nothing the old reporting surfaces printed is lost: the report states
every value ``report_golden.json`` recorded from them."""

import pytest

from repro import obs
from repro.obs.analyze import render_text
from repro.obs.runner import run_report, run_traced
from tests.obs.golden import (
    REPORT_SCENARIOS,
    line_states,
    load_report_golden,
)

#: The old -> new map: (surface, block its line was printed under) ->
#: the report sections one of which states the line now.
OLD_TO_NEW = {
    # scenario and seed, ring tallies; events by component
    ("trace --summary", "header"): ("time", "coverage"),
    # derived from events; written directly at their site
    ("trace --summary", "metrics"): ("metrics", "time"),
    ("analyze", "header"): ("coverage",),
    ("analyze", "connection"): ("packets",),
    ("analyze", "loss-recovery"): ("packets",),
    ("analyze", "quACK decode health"): ("assistance",),
    ("analyze", "sidecar health ladder"): ("assistance",),
    ("analyze", "sidecar defense"): ("assistance",),
    ("analyze --markdown", "header"): ("coverage",),
    ("analyze --markdown", "Connections"): ("packets",),
    ("analyze --markdown", "Loss-recovery attribution"): ("packets",),
    ("analyze --markdown", "quACK decode health"): ("assistance",),
    ("analyze --markdown", "Sidecar health ladder"): ("assistance",),
    ("analyze --markdown", "Sidecar defense"): ("assistance",),
    ("analyze --spans", "header"): ("packets",),
    ("profile", "header"): ("time",),
    ("profile", "flows"): ("time",),
}


@pytest.fixture(autouse=True)
def _clean_switchboard():
    yield
    obs.disable()
    obs.reset()


def test_golden_file_covers_the_report_scenarios():
    assert sorted(load_report_golden()) == sorted(REPORT_SCENARIOS)


@pytest.mark.parametrize("scenario", sorted(REPORT_SCENARIOS))
def test_report_golden(scenario):
    result = run_traced(scenario, seed=1,
                        total_bytes=REPORT_SCENARIOS[scenario])
    time = run_report(result, top=20)[0]
    printed = {section.title: render_text([section]).splitlines()
               for section in (time, *result.analysis.report(spans=True))}
    lost = [(surface, *fact)
            for surface, facts in load_report_golden()[scenario].items()
            for fact in facts
            if not any(line_states(line, fact[1:])
                       for title in OLD_TO_NEW[surface, fact[0]]
                       for line in printed[title])]
    assert not lost, f"printed before, in no line of the report now: {lost}"
