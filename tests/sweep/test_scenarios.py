"""The scenario registry: every row resolves and runs as a sweep cell."""

import json

import pytest

from repro.cli import build_parser
from repro.sweep.scenarios import (
    EXPERIMENT_SCENARIOS,
    SCENARIOS,
    _resolve,
    run_cell,
)

#: One small cell per scenario that touches the simulator.
SMALL_CELLS = {
    "cc-division": {"total_bytes": 60_000},
    "ack-reduction": {"total_bytes": 60_000},
    "retransmission": {"total_bytes": 60_000},
    "chaos": {"plan": "blackout", "total_bytes": 60_000},
    "scale": {"flows": 40, "tenants": 4, "duration_s": 0.2},
}


class TestRows:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_paths_resolve(self, name):
        # Rows are resolved lazily, so a typo would otherwise surface
        # only when somebody sweeps that scenario.
        row = SCENARIOS[name]
        assert callable(_resolve(row.entry))
        assert callable(_resolve(row.to_dict))

    @pytest.mark.parametrize("name", EXPERIMENT_SCENARIOS)
    def test_experiments_carry_what_the_cli_needs(self, name):
        import inspect

        row = SCENARIOS[name]
        accepted = inspect.signature(_resolve(row.entry)).parameters
        assert row.assist in accepted
        assert set(row.flags.values()) <= set(accepted)
        module = row.entry.partition(":")[0]
        assert callable(_resolve(f"{module}:format_result"))

    def test_rows_are_the_five_with_runtime_callers(self):
        # experiment/trace/slo call the three protocols, the chaos CLI
        # and sweep specs the plans, the nightly scale grid the flow
        # table; a row only the engine's own tests used would be dead.
        assert list(SCENARIOS) == ["cc-division", "ack-reduction",
                                   "retransmission", "chaos", "scale"]
        assert sorted(SMALL_CELLS) == sorted(SCENARIOS)

    def test_cli_offers_exactly_the_registered_experiments(self):
        parser = build_parser()
        for name in EXPERIMENT_SCENARIOS:
            assert parser.parse_args(["experiment", name]).which == name
        assert EXPERIMENT_SCENARIOS == ("cc-division", "ack-reduction",
                                        "retransmission")


class TestRunCell:
    @pytest.mark.parametrize("name", sorted(SMALL_CELLS))
    def test_cell_result_is_a_json_safe_dict(self, name):
        result = run_cell(name, SMALL_CELLS[name], seed=3)
        assert isinstance(result, dict)
        json.dumps(result)  # must not raise

    def test_a_pinned_seed_beats_the_derived_one(self):
        pinned = run_cell("chaos", {**SMALL_CELLS["chaos"], "seed": 9},
                          seed=3)
        derived = run_cell("chaos", SMALL_CELLS["chaos"], seed=3)
        assert (pinned["seed"], derived["seed"]) == (9, 3)

    @pytest.mark.parametrize("name", sorted(SMALL_CELLS))
    def test_cells_are_pure(self, name):
        # The premise of one attempt per cell: the same keywords and
        # seed give the same result in one process, run after run, so a
        # cell that failed would fail again.
        first = run_cell(name, SMALL_CELLS[name], seed=5)
        again = run_cell(name, SMALL_CELLS[name], seed=5)
        assert json.dumps(first, sort_keys=True) \
            == json.dumps(again, sort_keys=True)
