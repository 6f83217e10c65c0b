"""End-to-end ``repro sweep`` CLI coverage."""

import json

import pytest

from repro.cli import main


def _write_spec(tmp_path, record):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(record))
    return str(path)


SPEC = {
    "name": "cli-sweep", "scenario": "scale", "seed": 4,
    "base": {"tenants": 2, "duration_s": 0.1}, "grid": {"flows": [10, 20]},
}


def test_sweep_runs_and_saves_artifact(tmp_path, capsys):
    spec = _write_spec(tmp_path, SPEC)
    out = tmp_path / "aggregate.json"
    code = main(["sweep", spec, "--workers", "1",
                 "--output", str(out)])
    assert code == 0
    record = json.loads(out.read_text())
    assert record["kind"] == "sweep-aggregate"
    assert record["summary"] == {"total": 2, "ok": 2, "failed": 0}
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
    record = {"name": "cli-chaos", "scenario": "chaos", "seed": 4,
              "base": {"total_bytes": 60_000},
              "grid": {"plan": ["blackout", "no-such-plan"]}}
    spec = _write_spec(tmp_path, record)
    assert main(["sweep", spec, "--workers", "2"]) == 1
    out = capsys.readouterr().out
    assert "failed cells: 1" in out
    assert "ValueError: unknown chaos plan 'no-such-plan'" in out


def test_sweep_bad_spec_exits_two(tmp_path, capsys):
    spec = _write_spec(tmp_path, dict(SPEC, scenario="no-such"))
    assert main(["sweep", spec, "--workers", "1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_sweep_rejects_fewer_than_one_worker(tmp_path, capsys, workers):
    # As a spec's "workers": 0 is rejected; the flag is held to the same
    # rule by argparse (exit 2) instead of being clamped to serial.
    spec = _write_spec(tmp_path, SPEC)
    with pytest.raises(SystemExit) as stop:
        main(["sweep", spec, "--workers", workers])
    assert stop.value.code == 2
    assert "--workers: must be >= 1" in capsys.readouterr().err
