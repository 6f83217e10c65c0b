"""Differential oracle: heap vs. calendar scheduler, byte-identical.

The runtime's calendar queue (DESIGN.md §12) is only admissible if it is
*observationally indistinguishable* from the binary heap kept in
``heap_oracle.py``, swapped in through its one seam: every
event fires at the same virtual time, in the same order, producing the
same packets, the same trace, the same metrics.  This suite enforces
that at the strongest level we can measure -- byte equality of the
serialized artifacts:

* the JSONL trace export of every seed scenario and every chaos plan,
* the mergeable telemetry snapshot of the same runs,
* the ``strip_timing`` sweep aggregates, crossing scheduler *and*
  worker count (heap/in-process vs. calendar/4-workers),
* (``--runslow``) every sweep grid checked into ``examples/sweeps/``.

If a future scheduler change reorders even one same-tick tie, these
tests fail on the first diverging byte rather than on some downstream
statistic.
"""

from __future__ import annotations

import glob
import io
import json
import os

import pytest

from repro import obs
from repro.chaos import PLANS
from repro.obs.runner import EXPERIMENT_SCENARIOS, run_traced
from repro.obs.trace import dump_jsonl
from repro.sweep import SweepSpec, run_sweep, strip_timing
from tests.netsim.heap_oracle import backend

SWEEP_DIR = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                         "examples", "sweeps")


def _traced_artifacts(scenario: str, scheduler: str,
                      **kwargs) -> tuple[str, str]:
    """Run ``scenario`` under ``scheduler``; return (jsonl, telemetry).

    Both return values are fully serialized strings so the assertions
    compare bytes, not structures -- a reordered dict key or a float
    that repr()s differently is a failure too.
    """
    with backend(scheduler):
        result = run_traced(scenario, profile=False, **kwargs)
    buffer = io.StringIO()
    dump_jsonl(result.events, buffer)
    telemetry = json.dumps(obs.METRICS.snapshot(), sort_keys=True)
    return buffer.getvalue(), telemetry


def _assert_schedulers_agree(scenario: str, **kwargs) -> None:
    heap_trace, heap_telemetry = _traced_artifacts(scenario, "heap", **kwargs)
    cal_trace, cal_telemetry = _traced_artifacts(scenario, "calendar",
                                                 **kwargs)
    # The run must have actually produced something to compare.
    assert heap_trace.strip(), f"{scenario}: empty trace under heap"
    assert heap_trace == cal_trace, \
        f"{scenario}: JSONL trace diverged between heap and calendar"
    assert heap_telemetry == cal_telemetry, \
        f"{scenario}: telemetry snapshot diverged between heap and calendar"


class TestSeedScenarios:
    """Every protocol experiment, traced under both backends."""

    @pytest.mark.parametrize("scenario", EXPERIMENT_SCENARIOS)
    def test_trace_and_telemetry_byte_identical(self, scenario):
        _assert_schedulers_agree(scenario, seed=1, total_bytes=60_000)

    def test_nontrivial_seed_and_loss(self):
        # A second operating point so the equality is not an artifact of
        # one lucky parameterization.
        _assert_schedulers_agree("retransmission", seed=1234,
                                 total_bytes=40_000, loss=0.08)


class TestChaosPlans:
    """Every chaos plan -- faults, crashes, adversaries -- both backends."""

    @pytest.mark.parametrize("plan", sorted(PLANS))
    def test_trace_and_telemetry_byte_identical(self, plan):
        _assert_schedulers_agree(plan, seed=1, total_bytes=40_000)


def _stripped_dump(spec, *, workers, scheduler):
    """One sweep run on a scheduler.  The heap oracle is swapped in for
    this process only (pool workers import the runtime as it is), so
    heap runs are serial."""
    assert scheduler == "calendar" or workers == 1
    with backend(scheduler):
        aggregate = run_sweep(spec, workers=workers)
    return json.dumps(strip_timing(aggregate.to_dict()), sort_keys=True)


class TestSweepCrossSchedulerDeterminism:
    """workers x scheduler: every reachable corner produces the same bytes."""

    SPEC = {
        "name": "xsched-retx", "scenario": "retransmission", "seed": 42,
        "base": {"total_bytes": 30000},
        "grid": {"loss_rate": [0.01, 0.05],
                 "lossy_delay": [0.002, 0.01]},
    }

    def test_heap_serial_matches_calendar_parallel(self):
        spec = SweepSpec.from_dict(self.SPEC)
        heap_serial = _stripped_dump(spec, workers=1, scheduler="heap")
        cal_parallel = _stripped_dump(spec, workers=4, scheduler="calendar")
        assert heap_serial == cal_parallel

    def test_calendar_serial_matches_heap_serial(self):
        spec = SweepSpec.from_dict(self.SPEC)
        cal_serial = _stripped_dump(spec, workers=1, scheduler="calendar")
        heap_serial = _stripped_dump(spec, workers=1, scheduler="heap")
        assert cal_serial == heap_serial


def _example_sweep_paths():
    paths = sorted(glob.glob(os.path.join(SWEEP_DIR, "*.json")))
    assert paths, f"no example sweeps found under {SWEEP_DIR}"
    return paths


@pytest.mark.slow
class TestExampleSweepGrids:
    """The full checked-in grids (nightly: ``pytest --runslow``)."""

    @pytest.mark.parametrize(
        "path", _example_sweep_paths(),
        ids=[os.path.splitext(os.path.basename(p))[0]
             for p in _example_sweep_paths()])
    def test_grid_identical_across_schedulers(self, path):
        with open(path, encoding="utf-8") as handle:
            spec = SweepSpec.from_dict(json.load(handle))
        heap = _stripped_dump(spec, workers=1, scheduler="heap")
        calendar = _stripped_dump(spec, workers=4, scheduler="calendar")
        assert heap == calendar
