"""Tests for declarative tail-latency budgets (repro.obs.slo)."""

import json

import pytest

from repro import obs
from repro.errors import ObservabilityError
from repro.obs.metrics import LATENCY_BUCKETS, MetricsRegistry
from repro.obs.slo import (
    evaluate_budgets,
    format_verdicts,
    load_budget_file,
    run_scenarios,
)


@pytest.fixture(autouse=True)
def _clean_switchboard():
    yield
    obs.disable()
    obs.reset()


def _snapshot():
    registry = MetricsRegistry()
    hist = registry.histogram("repair_seconds", labels=("cause",),
                              buckets=LATENCY_BUCKETS)
    for value in (0.1, 0.2, 0.2, 0.4, 1.2):
        hist.labels(cause="quack").observe(value)
    decodes = registry.counter("decodes_total", labels=("status",))
    decodes.labels(status="ok").inc(98)
    decodes.labels(status="fail").inc(2)
    registry.counter("delivered_total", labels=()).labels().inc(500)
    return registry.snapshot()


class TestStatBudgets:
    def test_quantile_within_budget(self):
        verdicts = evaluate_budgets(
            [{"name": "p99", "metric": "repair_seconds",
              "labels": {"cause": "quack"}, "stat": "p99", "max": 2.0}],
            _snapshot())
        assert verdicts[0].ok
        assert verdicts[0].observed == 1.5  # exact-to-bucket

    def test_quantile_violation(self):
        verdicts = evaluate_budgets(
            [{"name": "p99", "metric": "repair_seconds",
              "stat": "p99", "max": 0.25}], _snapshot())
        assert not verdicts[0].ok

    def test_counter_min_bound(self):
        verdicts = evaluate_budgets(
            [{"name": "delivered", "metric": "delivered_total",
              "stat": "value", "min": 400}], _snapshot())
        assert verdicts[0].ok and verdicts[0].observed == 500

    def test_min_count_guard_marks_unmeasured(self):
        verdicts = evaluate_budgets(
            [{"name": "p99", "metric": "repair_seconds",
              "stat": "p99", "max": 2.0, "min_count": 50}], _snapshot())
        assert not verdicts[0].ok
        assert verdicts[0].observed is None
        assert "min_count" in verdicts[0].detail

    def test_missing_metric_fails_by_default(self):
        verdicts = evaluate_budgets(
            [{"name": "ghost", "metric": "nope_seconds",
              "stat": "p50", "max": 1.0}], _snapshot())
        assert not verdicts[0].ok
        assert "unmeasured SLOs fail by default" in verdicts[0].detail

    def test_allow_missing_escape_hatch(self):
        verdicts = evaluate_budgets(
            [{"name": "ghost", "metric": "nope_seconds", "stat": "p50",
              "max": 1.0, "allow_missing": True}], _snapshot())
        assert verdicts[0].ok

    def test_budget_without_bounds_rejected(self):
        with pytest.raises(ObservabilityError, match="neither max nor min"):
            evaluate_budgets([{"name": "x", "metric": "repair_seconds",
                               "stat": "p50"}], _snapshot())

    def test_bad_stat_rejected(self):
        with pytest.raises(ObservabilityError, match="not valid"):
            evaluate_budgets([{"name": "x", "metric": "repair_seconds",
                               "stat": "median", "max": 1.0}], _snapshot())


class TestRatioBudgets:
    def test_failure_rate(self):
        verdicts = evaluate_budgets(
            [{"name": "decode failures", "ratio_of": "decodes_total",
              "label": "status", "ok_values": ["ok"], "max": 0.05}],
            _snapshot())
        assert verdicts[0].ok
        assert verdicts[0].observed == pytest.approx(0.02)
        assert "2/100" in verdicts[0].detail

    def test_failure_rate_violation(self):
        verdicts = evaluate_budgets(
            [{"name": "decode failures", "ratio_of": "decodes_total",
              "label": "status", "ok_values": ["ok"], "max": 0.01}],
            _snapshot())
        assert not verdicts[0].ok

    def test_nothing_recorded_is_unmeasured(self):
        verdicts = evaluate_budgets(
            [{"name": "x", "ratio_of": "ghost_total", "label": "status",
              "ok_values": ["ok"], "max": 0.1}], _snapshot())
        assert not verdicts[0].ok and verdicts[0].observed is None


class TestBudgetFile:
    def _write(self, tmp_path, doc):
        path = tmp_path / "budget.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_load_valid(self, tmp_path):
        path = self._write(tmp_path, {
            "kind": "slo-budgets", "schema": 1,
            "budgets": [{"name": "x", "metric": "m", "stat": "p50",
                         "max": 1.0}]})
        assert load_budget_file(path)["budgets"]

    def test_wrong_kind_rejected(self, tmp_path):
        path = self._write(tmp_path, {"kind": "telemetry", "schema": 1})
        with pytest.raises(ObservabilityError, match="not an slo-budgets"):
            load_budget_file(path)

    def test_future_schema_rejected(self, tmp_path):
        path = self._write(tmp_path, {"kind": "slo-budgets", "schema": 99,
                                      "budgets": [{}]})
        with pytest.raises(ObservabilityError, match="not supported"):
            load_budget_file(path)

    def test_empty_budgets_rejected(self, tmp_path):
        path = self._write(tmp_path, {"kind": "slo-budgets", "schema": 1,
                                      "budgets": []})
        with pytest.raises(ObservabilityError, match="no budgets"):
            load_budget_file(path)

    def test_run_scenarios_requires_scenarios(self):
        with pytest.raises(ObservabilityError, match="no scenarios"):
            run_scenarios({"kind": "slo-budgets", "schema": 1,
                           "budgets": [{}]})

    def test_checked_in_seed_budget_file_is_loadable(self):
        import pathlib

        repo = pathlib.Path(__file__).resolve().parents[2]
        doc = load_budget_file(str(repo / "benchmarks" / "slo"
                                   / "seed_scenarios.json"))
        assert doc["scenarios"]
        assert len(doc["budgets"]) >= 3


class TestFormatting:
    def test_verdict_lines(self):
        verdicts = evaluate_budgets(
            [{"name": "pass", "metric": "delivered_total", "stat": "value",
              "min": 1},
             {"name": "fail", "metric": "delivered_total", "stat": "value",
              "min": 10_000}], _snapshot())
        text = format_verdicts("budget.json", verdicts)
        assert "1 VIOLATED" in text
        assert "ok    pass" in text and "FAIL  fail" in text


class TestCli:
    def _snapshot_file(self, tmp_path):
        path = tmp_path / "telemetry.json"
        path.write_text(json.dumps(_snapshot()))
        return str(path)

    def _budget_file(self, tmp_path, max_p99):
        path = tmp_path / f"budget-{max_p99}.json"
        path.write_text(json.dumps({
            "kind": "slo-budgets", "schema": 1,
            "budgets": [{"name": "repair p99",
                         "metric": "repair_seconds",
                         "stat": "p99", "max": max_p99}]}))
        return str(path)

    def test_pass_exits_zero(self, capsys, tmp_path):
        from repro.cli import main

        code = main(["slo", self._budget_file(tmp_path, 2.0),
                     "--snapshot", self._snapshot_file(tmp_path)])
        assert code == 0
        assert "all within budget" in capsys.readouterr().out

    def test_violation_exits_one(self, capsys, tmp_path):
        from repro.cli import main

        code = main(["slo", self._budget_file(tmp_path, 0.25),
                     "--snapshot", self._snapshot_file(tmp_path)])
        assert code == 1
        assert "VIOLATED" in capsys.readouterr().out

    def test_unreadable_budget_exits_two(self, capsys, tmp_path):
        from repro.cli import main

        assert main(["slo", str(tmp_path / "nope.json")]) == 2

    def test_sweep_aggregate_without_telemetry_exits_two(self, capsys,
                                                         tmp_path):
        from repro.cli import main

        snapshot = tmp_path / "aggregate.json"
        snapshot.write_text(json.dumps({"kind": "sweep-aggregate"}))
        code = main(["slo", self._budget_file(tmp_path, 2.0),
                     "--snapshot", str(snapshot)])
        assert code == 2
        assert "--telemetry" in capsys.readouterr().err
