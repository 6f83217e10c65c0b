"""End-to-end ``repro sweep`` CLI coverage."""

import json

from repro.cli import main


def _write_spec(tmp_path, record):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(record))
    return str(path)


SPEC = {
    "name": "cli-sweep", "scenario": "selftest", "seed": 4,
    "base": {"work": 8}, "grid": {"echo": ["x", "y"]},
}


def test_sweep_runs_and_saves_artifact(tmp_path, capsys):
    spec = _write_spec(tmp_path, SPEC)
    out = tmp_path / "aggregate.json"
    code = main(["sweep", spec, "--workers", "1",
                 "--output", str(out)])
    assert code == 0
    record = json.loads(out.read_text())
    assert record["kind"] == "sweep-aggregate"
    assert record["summary"] == {"total": 2, "ok": 2, "failed": 0,
                                 "retried": 0}
    stdout = capsys.readouterr().out
    assert "cli-sweep" in stdout


def test_sweep_resume_completes_partial(tmp_path, capsys):
    spec = _write_spec(tmp_path, SPEC)
    full = tmp_path / "full.json"
    assert main(["sweep", spec, "--workers", "1",
                 "--output", str(full)]) == 0

    partial_record = json.loads(full.read_text())
    partial_record["cells"] = partial_record["cells"][:1]
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps(partial_record))

    resumed = tmp_path / "resumed.json"
    assert main(["sweep", spec, "--workers", "1",
                 "--resume", str(partial),
                 "--output", str(resumed)]) == 0
    resumed_record = json.loads(resumed.read_text())
    assert resumed_record["summary"]["ok"] == 2
    capsys.readouterr()


def test_sweep_failure_exits_nonzero(tmp_path, capsys):
    record = dict(SPEC, grid={"fail_attempts": [0, 99]}, retries=0)
    spec = _write_spec(tmp_path, record)
    assert main(["sweep", spec, "--workers", "1"]) == 1
    assert "failed cells: 1" in capsys.readouterr().out


def test_sweep_bad_spec_exits_two(tmp_path, capsys):
    spec = _write_spec(tmp_path, dict(SPEC, scenario="no-such"))
    assert main(["sweep", spec, "--workers", "1"]) == 2
    capsys.readouterr()
