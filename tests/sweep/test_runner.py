"""Runner: one attempt per cell, failures recorded, resume, artifact."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import SweepResumeError
from repro.sweep.artifact import (
    CELL_FAILED,
    CELL_OK,
    completed_results,
    format_aggregate,
    load_aggregate_dict,
    strip_timing,
)
from repro.sweep.runner import POOL_BROKEN, run_sweep
from repro.sweep.spec import SweepSpec
from tests.sweep.crashing import clean_spec, crash_spec

#: An aggregate written while the engine still retried (``attempts``,
#: ``error_kind``, ``summary.retried`` and the spec's retry knobs).
RETRIED_AGGREGATE = Path(__file__).with_name("retried_aggregate.json")


def scale_spec(**overrides):
    record = {
        "name": "runner-test", "scenario": "scale", "seed": 11,
        "base": {"tenants": 2, "duration_s": 0.1},
        "grid": {"flows": [10, 20, 30, 40]},
    }
    record.update(overrides)
    return SweepSpec.from_dict(record)


#: Cell 1 raises ``TypeError`` inside ``run_scale``, on every run.
RAISING = {"flows": [10, "many", 30]}


def cells_run(messages):
    """Indices of the cells a sweep ran, from its progress lines."""
    return sorted(int(message.split()[1].rstrip(":"))
                  for message in messages if message.startswith("cell "))


class TestSerial:
    def test_all_ok(self):
        aggregate = run_sweep(scale_spec(), workers=1)
        assert aggregate.ok
        assert [cell.index for cell in aggregate.cells] == [0, 1, 2, 3]
        assert all(cell.status == CELL_OK and cell.error is None
                   for cell in aggregate.cells)

    def test_raising_cell_lands_in_failed_cells(self):
        ran = []
        aggregate = run_sweep(scale_spec(grid=RAISING), workers=1,
                              progress=ran.append)
        assert not aggregate.ok
        assert cells_run(ran) == [0, 1, 2]  # one attempt each
        record = aggregate.to_dict()
        assert record["summary"] == {"total": 3, "ok": 2, "failed": 1}
        (failure,) = record["failed_cells"]
        assert failure == {
            "index": 1, "params": {"tenants": 2, "duration_s": 0.1,
                                   "flows": "many"},
            "error": "TypeError: '<' not supported between instances of "
                     "'str' and 'int'"}
        # The failed cell is still present in the main cell list -- a
        # failure is recorded, never silently dropped.
        assert [cell["index"] for cell in record["cells"]] == [0, 1, 2]
        assert record["cells"][1]["status"] == CELL_FAILED


class TestParallelFaults:
    def test_worker_exception_is_recorded_once(self):
        ran = []
        serial = run_sweep(scale_spec(grid=RAISING), workers=1)
        parallel = run_sweep(scale_spec(grid=RAISING), workers=2,
                             progress=ran.append)
        assert cells_run(ran) == [0, 1, 2]
        assert strip_timing(parallel.to_dict()) \
            == strip_timing(serial.to_dict())

    def test_worker_hard_crash_breaks_pool_but_not_sweep(self, crashing):
        aggregate = run_sweep(crash_spec(crashing), workers=2)
        assert [cell.index for cell in aggregate.cells] == [0, 1, 2, 3]
        failed = aggregate.failed_cells
        assert 3 in [cell.index for cell in failed]
        # Every cell the dead worker left unfinished fails alike: the
        # parent cannot tell which task killed the pool.
        assert {cell.error for cell in failed} == {POOL_BROKEN}
        # The cells that finished first keep their results.
        clean = run_sweep(clean_spec(), workers=1).cells
        kept = [cell for cell in aggregate.cells if cell.ok]
        assert kept
        assert all(cell.result == clean[cell.index].result for cell in kept)

    def test_unrecoverable_crasher_is_recorded_not_fatal(self, crashing,
                                                         tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(crash_spec(crashing).to_dict()))
        assert main(["sweep", str(path), "--workers", "2"]) == 1
        out = capsys.readouterr().out
        assert "failed cells: " in out and POOL_BROKEN in out


class TestResume:
    def test_resume_skips_completed_cells(self, tmp_path):
        spec = scale_spec()
        full = run_sweep(spec, workers=1)
        partial = full.to_dict()
        partial["cells"] = partial["cells"][:2]  # pretend 2 cells remain
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(partial))

        ran = []
        resumed = run_sweep(spec, workers=1,
                            resume=load_aggregate_dict(str(path)),
                            progress=ran.append)
        assert cells_run(ran) == [2, 3]
        assert strip_timing(resumed.to_dict()) == strip_timing(full.to_dict())

    def test_resume_reruns_failed_cells(self, crashing):
        spec = crash_spec(crashing)
        first = run_sweep(spec, workers=2)
        failed = [cell.index for cell in first.failed_cells]
        assert 3 in failed

        # The worker no longer dies: resume runs exactly the failed
        # cells, and the sweep is whole.
        crashing.unlink()
        ran = []
        resumed = run_sweep(spec, workers=2, resume=first.to_dict(),
                            progress=ran.append)
        assert cells_run(ran) == failed
        assert resumed.ok
        assert [cell.result for cell in resumed.cells] \
            == [cell.result for cell in run_sweep(clean_spec(),
                                                  workers=1).cells]

    def test_resume_reads_an_aggregate_written_with_retries(self):
        old = load_aggregate_dict(str(RETRIED_AGGREGATE))
        spec = SweepSpec.from_dict(
            {key: old["spec"][key]
             for key in ("name", "scenario", "seed", "base", "grid")})
        assert spec.fingerprint() == old["fingerprint"]
        ran = []
        resumed = run_sweep(spec, workers=1, resume=old, progress=ran.append)
        assert cells_run(ran) == [2]
        record = resumed.to_dict()
        assert [cell["result"] for cell in record["cells"]] \
            == [cell["result"] for cell in old["cells"]]
        assert record["failed_cells"] == [
            {key: old["failed_cells"][0][key]
             for key in ("index", "params", "error")}]
        assert record["summary"] == {"total": 3, "ok": 2, "failed": 1}
        assert all("attempts" not in cell and "error_kind" not in cell
                   for cell in record["cells"])

    def test_resume_refuses_foreign_aggregate(self):
        foreign = run_sweep(scale_spec(seed=999), workers=1)
        with pytest.raises(SweepResumeError, match="fingerprint"):
            completed_results(scale_spec(), foreign.to_dict())


class TestArtifact:
    def test_aggregate_is_json_round_trippable(self, tmp_path):
        aggregate = run_sweep(scale_spec(), workers=1)
        path = tmp_path / "aggregate.json"
        aggregate.save(str(path))
        loaded = load_aggregate_dict(str(path))
        assert loaded == json.loads(json.dumps(aggregate.to_dict()))
        assert loaded["kind"] == "sweep-aggregate"

    def test_strip_timing_removes_only_timing(self):
        record = run_sweep(scale_spec(), workers=1).to_dict()
        stripped = strip_timing(record)
        assert "timing" not in stripped
        assert all("wall_time_s" not in cell for cell in stripped["cells"])
        assert stripped["cells"][0]["result"] \
            == record["cells"][0]["result"]

    def test_format_aggregate_mentions_failures(self):
        spec = scale_spec(grid=RAISING)
        text = format_aggregate(run_sweep(spec, workers=1).to_dict())
        assert "cells: 3 total, 2 ok, 1 failed" in text
        assert "FAILED" in text and "TypeError" in text
        assert "failed cells: 1" in text
