"""Runner fault tolerance: retries, crashes, timeouts, resume, artifact."""

import json

import pytest

from repro.errors import SweepResumeError
from repro.sweep import (
    CELL_FAILED,
    CELL_OK,
    SweepSpec,
    completed_results,
    format_aggregate,
    load_aggregate_dict,
    run_sweep,
    strip_timing,
)


def selftest_spec(**overrides):
    record = {
        "name": "runner-test", "scenario": "selftest", "seed": 11,
        "base": {"work": 16}, "grid": {"cell": [0, 1, 2, 3]},
        "retries": 2, "retry_backoff_s": 0.0,
    }
    record.update(overrides)
    return SweepSpec.from_dict(record)


class TestSerial:
    def test_all_ok(self):
        aggregate = run_sweep(selftest_spec(), workers=1)
        assert aggregate.ok
        assert [cell.index for cell in aggregate.cells] == [0, 1, 2, 3]
        assert all(cell.status == CELL_OK and cell.attempts == 1
                   for cell in aggregate.cells)

    def test_flaky_cell_is_retried_to_success(self):
        # fail_attempts=2 raises on worker attempts 0 and 1, succeeds on 2.
        spec = selftest_spec(grid={"fail_attempts": [0, 2]})
        aggregate = run_sweep(spec, workers=1)
        assert aggregate.ok
        flaky = aggregate.cells[1]
        assert flaky.attempts == 3
        assert flaky.result["attempt"] == 2

    def test_exhausted_retries_land_in_failed_cells(self):
        spec = selftest_spec(grid={"fail_attempts": [0, 99]}, retries=1)
        aggregate = run_sweep(spec, workers=1)
        assert not aggregate.ok
        record = aggregate.to_dict()
        assert record["summary"] == {"total": 2, "ok": 1, "failed": 1,
                                     "retried": 1}
        (failure,) = record["failed_cells"]
        assert failure["index"] == 1
        assert failure["error_kind"] == "exception"
        assert failure["attempts"] == 2
        assert "injected failure" in failure["error"]
        # The failed cell is still present in the main cell list -- a
        # failure is recorded, never silently dropped.
        assert [cell["index"] for cell in record["cells"]] == [0, 1]
        assert record["cells"][1]["status"] == CELL_FAILED


class TestParallelFaults:
    def test_worker_exception_is_retried(self):
        spec = selftest_spec(grid={"fail_attempts": [0, 1, 0, 1]})
        aggregate = run_sweep(spec, workers=2)
        assert aggregate.ok
        assert aggregate.cells[1].attempts == 2
        assert aggregate.cells[3].attempts == 2

    def test_worker_hard_crash_breaks_pool_but_not_sweep(self):
        # Cell 2's worker os._exit()s on its first attempt: the pool
        # breaks, is rebuilt, and the cell succeeds on retry.
        spec = selftest_spec(grid={"exit_attempts": [0, 0, 1, 0]})
        aggregate = run_sweep(spec, workers=2)
        assert aggregate.ok, aggregate.to_dict()["failed_cells"]
        assert aggregate.cells[2].attempts >= 2

    def test_unrecoverable_crasher_is_recorded_not_fatal(self):
        spec = selftest_spec(grid={"exit_attempts": [0, 99]}, retries=1)
        aggregate = run_sweep(spec, workers=2)
        record = aggregate.to_dict()
        assert record["cells"][0]["status"] == CELL_OK
        (failure,) = record["failed_cells"]
        assert failure["index"] == 1
        assert failure["error_kind"] == "worker-crash"

    def test_timeout_is_reaped_and_recorded(self):
        spec = selftest_spec(grid={"sleep_s": [0.0, 0.8]}, retries=0,
                             task_timeout_s=0.25)
        aggregate = run_sweep(spec, workers=2)
        record = aggregate.to_dict()
        assert record["cells"][0]["status"] == CELL_OK
        (failure,) = record["failed_cells"]
        assert failure["index"] == 1
        assert failure["error_kind"] == "timeout"


class TestResume:
    def test_resume_skips_completed_cells(self, tmp_path):
        spec = selftest_spec()
        full = run_sweep(spec, workers=1)
        partial = full.to_dict()
        partial["cells"] = partial["cells"][:2]  # pretend 2 cells remain
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(partial))

        resumed = run_sweep(spec, workers=1,
                            resume=load_aggregate_dict(str(path)))
        assert strip_timing(resumed.to_dict()) == strip_timing(full.to_dict())

    def test_resume_reruns_failed_cells(self):
        spec = selftest_spec(grid={"fail_attempts": [0, 1]}, retries=0)
        first = run_sweep(spec, workers=1)
        assert not first.ok

        # Same fingerprint, more retries: the failed cell gets rerun
        # with a fresh attempt budget and now succeeds.
        retry_spec = selftest_spec(grid={"fail_attempts": [0, 1]}, retries=2)
        resumed = run_sweep(retry_spec, workers=1, resume=first.to_dict())
        assert resumed.ok
        assert resumed.cells[1].attempts == 2

    def test_resume_refuses_foreign_aggregate(self):
        foreign = run_sweep(selftest_spec(seed=999), workers=1)
        with pytest.raises(SweepResumeError, match="fingerprint"):
            completed_results(selftest_spec(), foreign.to_dict())


class TestArtifact:
    def test_aggregate_is_json_round_trippable(self, tmp_path):
        aggregate = run_sweep(selftest_spec(), workers=1)
        path = tmp_path / "aggregate.json"
        aggregate.save(str(path))
        loaded = load_aggregate_dict(str(path))
        assert loaded == json.loads(json.dumps(aggregate.to_dict()))
        assert loaded["kind"] == "sweep-aggregate"

    def test_strip_timing_removes_only_timing(self):
        record = run_sweep(selftest_spec(), workers=1).to_dict()
        stripped = strip_timing(record)
        assert "timing" not in stripped
        assert all("wall_time_s" not in cell and "attempts" not in cell
                   for cell in stripped["cells"])
        assert stripped["cells"][0]["result"] \
            == record["cells"][0]["result"]

    def test_format_aggregate_mentions_failures(self):
        spec = selftest_spec(grid={"fail_attempts": [0, 9]}, retries=0)
        text = format_aggregate(run_sweep(spec, workers=1).to_dict())
        assert "FAILED" in text
        assert "failed cells: 1" in text
