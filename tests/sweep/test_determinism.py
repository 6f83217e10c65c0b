"""Determinism: worker count and scheduling must not leak into results.

The same spec + seed run with ``--workers 1`` and ``--workers 2`` or
``4`` produce identical aggregates modulo wall-clock fields, and a cell
that raises -- or whose worker dies -- is marked failed without moving
a byte of its siblings' results.
"""

import json

import pytest

from repro.sweep.artifact import strip_timing
from repro.sweep.runner import run_sweep
from repro.sweep.spec import SweepSpec
from tests.sweep.crashing import clean_spec, crash_spec


def _stripped(spec, **kwargs):
    return strip_timing(run_sweep(spec, **kwargs).to_dict())


def _dump(value):
    return json.dumps(value, sort_keys=True)


class TestWorkerCountInvariance:
    def test_scale_grid_identical_across_workers(self):
        spec = SweepSpec.from_dict({
            "name": "det", "scenario": "scale", "seed": 7,
            "base": {"tenants": 4, "duration_s": 0.1},
            "grid": {"flows": [10, 40, 80], "churn_rate": [0.0, 0.5]},
        })
        serial = _stripped(spec, workers=1)
        parallel = _stripped(spec, workers=2)
        assert serial == parallel
        # And byte-identical once serialized, not merely == as dicts.
        assert _dump(serial) == _dump(parallel)

    def test_real_scenario_sweep_identical_across_worker_counts(self):
        # A genuine netsim experiment: in-network retransmission over a
        # tiny 2x2 grid, small transfers to keep this inside tier-1 time.
        spec = SweepSpec.from_dict({
            "name": "det-retx", "scenario": "retransmission", "seed": 42,
            "base": {"total_bytes": 30000},
            "grid": {"loss_rate": [0.01, 0.05],
                     "lossy_delay": [0.002, 0.01]},
        })
        serial = _stripped(spec, workers=1)
        parallel = _stripped(spec, workers=4)
        assert serial == parallel

    def test_repeated_serial_runs_identical(self):
        spec = SweepSpec.from_dict({
            "name": "det", "scenario": "scale", "seed": 3,
            "base": {"tenants": 2, "duration_s": 0.1},
            "grid": {"flows": [10, 20]},
        })
        assert _stripped(spec, workers=1) == _stripped(spec, workers=1)


def _chaos_spec(*plans):
    return SweepSpec.from_dict({
        "name": "det-chaos", "scenario": "chaos", "seed": 3,
        "base": {"total_bytes": 60_000}, "grid": {"plan": list(plans)}})


class TestFaultsDoNotPerturbResults:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_raising_cell_spares_siblings(self, workers):
        # A real row with a bad keyword: run_plan raises on every run,
        # so the one attempt is final.  Same indices, same cell seeds:
        # the clean spec differs only in the middle plan.
        broken = _stripped(_chaos_spec("blackout", "no-such-plan", "replay"),
                           workers=workers)
        clean = _stripped(_chaos_spec("blackout", "duplication", "replay"),
                          workers=1)
        assert broken["summary"] == {"total": 3, "ok": 2, "failed": 1}
        (failure,) = broken["failed_cells"]
        assert failure["index"] == 1
        assert failure["error"].startswith(
            "ValueError: unknown chaos plan 'no-such-plan'; have blackout")
        for index in (0, 2):
            assert _dump(broken["cells"][index]) \
                == _dump(clean["cells"][index])

    def test_hard_crash_does_not_change_sibling_results(self, crashing):
        clean = run_sweep(clean_spec(), workers=2).cells
        crashed = run_sweep(crash_spec(crashing), workers=2).cells
        for before, after in zip(clean, crashed):
            if after.ok:
                # The pool breaking next door moves no finished result.
                assert _dump(after.result) == _dump(before.result)
        assert not crashed[3].ok
