"""Sweep-wide telemetry aggregation (--telemetry) tests.

Each worker runs its cell in metrics-only observability mode, ships a
mergeable snapshot back on the ``CellOutcome``, and the aggregate merges
them all -- deterministically, regardless of worker count.
"""

import json

import pytest

from repro import obs
from repro.obs.aggregate import select_series
from repro.sweep import SweepSpec, run_sweep, strip_timing
from repro.sweep.artifact import CellOutcome


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


class TestDiffFlattening:
    def test_sweep_aggregate_flattens_for_diff(self):
        from repro.obs.perf import flatten_snapshot

        aggregate = run_sweep(_retx_spec(), workers=1, telemetry=True)
        kind, flat, _rev = flatten_snapshot(aggregate.to_dict())
        assert kind == "telemetry"
        assert any(name.startswith(
            "telemetry_transport_packets_delivered_total") for name in flat)
        assert any(name.endswith("_p99") for name in flat)
        assert all(name.startswith("telemetry_") for name in flat)
