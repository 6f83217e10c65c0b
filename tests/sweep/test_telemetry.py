"""Sweep-wide telemetry aggregation (--telemetry) tests.

Each worker runs its cell in metrics-only observability mode, ships a
mergeable snapshot back on the ``CellOutcome``, and the aggregate merges
them all -- deterministically, regardless of worker count.
"""

import json
import pathlib

import pytest

from repro import obs
from repro.obs.aggregate import select_series
from repro.sweep.artifact import CellOutcome, strip_timing
from repro.sweep.runner import run_sweep
from repro.sweep.spec import SweepSpec


@pytest.fixture(autouse=True)
def _clean_switchboard():
    yield
    obs.disable()
    obs.reset()


def _retx_spec(seed=42):
    return SweepSpec.from_dict({
        "name": "telemetry", "scenario": "retransmission", "seed": seed,
        "base": {"total_bytes": 30000},
        "grid": {"loss_rate": [0.01, 0.05]},
    })


class TestCollection:
    def test_cells_carry_mergeable_snapshots(self):
        aggregate = run_sweep(_retx_spec(), workers=1, telemetry=True)
        assert aggregate.ok
        for cell in aggregate.cells:
            assert cell.telemetry is not None
            assert cell.telemetry["kind"] == "telemetry"
        merged = aggregate.telemetry
        delivered = select_series(merged, "transport_packets_delivered_total")
        assert delivered and delivered[0]["value"] > 0

    def test_without_flag_no_telemetry(self):
        aggregate = run_sweep(_retx_spec(), workers=1)
        assert all(cell.telemetry is None for cell in aggregate.cells)
        assert aggregate.telemetry is None
        record = aggregate.to_dict()
        assert "telemetry" not in record
        assert "telemetry_cells" not in record["summary"]

    def test_artifact_includes_telemetry_block(self):
        aggregate = run_sweep(_retx_spec(), workers=1, telemetry=True)
        record = aggregate.to_dict()
        assert record["summary"]["telemetry_cells"] == len(aggregate.cells)
        assert record["telemetry"]["kind"] == "telemetry"
        # Per-cell snapshots round-trip through the artifact records
        # (what sweep --resume reads back).
        revived = [CellOutcome.from_dict(cell)
                   for cell in json.loads(json.dumps(record))["cells"]]
        assert [cell.telemetry for cell in revived] \
            == [cell.telemetry for cell in aggregate.cells]


class TestDeterminism:
    def test_merged_telemetry_identical_across_worker_counts(self):
        serial = run_sweep(_retx_spec(), workers=1, telemetry=True)
        parallel = run_sweep(_retx_spec(), workers=2, telemetry=True)
        assert strip_timing(serial.to_dict()) \
            == strip_timing(parallel.to_dict())
        assert json.dumps(serial.telemetry, sort_keys=True) \
            == json.dumps(parallel.telemetry, sort_keys=True)



class TestSloAgainst:
    def test_sweep_aggregates_side_by_side(self, capsys, tmp_path):
        """``repro slo --snapshot B --against A`` over two aggregates: the
        baseline column is A's value, the verdict B's alone."""
        from repro.cli import main

        paths = {}
        for name, seed in (("a", 42), ("b", 43)):
            paths[name] = str(tmp_path / f"{name}.json")
            run_sweep(_retx_spec(seed), workers=1,
                      telemetry=True).save(paths[name])
        delivered = {
            name: sum(entry["value"] for entry in select_series(
                json.loads(pathlib.Path(path).read_text())["telemetry"],
                "transport_packets_delivered_total"))
            for name, path in paths.items()}
        assert delivered["a"] != delivered["b"]  # two sides that differ
        budget = tmp_path / "budget.json"
        budget.write_text(json.dumps({
            "kind": "slo-budgets", "schema": 1,
            "budgets": [{"name": "delivered",
                         "metric": "transport_packets_delivered_total",
                         "stat": "value", "min": 1}]}))
        for against in ("a", "b"):
            code = main(["slo", str(budget), "--snapshot", paths["b"],
                         "--against", paths[against]])
            assert code == 0
            row = capsys.readouterr().out.splitlines()[-1].split()
            ratio = delivered["b"] / delivered[against]
            assert row == ["delivered", f"{delivered[against]:.6g}",
                           f"{delivered['b']:.6g}", f"{ratio:.3g}",
                           "min=1", "ok"]
