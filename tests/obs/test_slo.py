"""Tests for declarative tail-latency budgets (repro.obs.slo)."""

import json

import pytest

from repro import obs
from repro.errors import ObservabilityError
from repro.obs.analyze import render_text
from repro.obs.metrics import LATENCY_BUCKETS, MetricsRegistry
from repro.obs.slo import (
    BudgetVerdict,
    evaluate_budgets,
    load_budget_file,
    run_scenarios,
    verdict_section,
)


@pytest.fixture(autouse=True)
def _clean_switchboard():
    yield
    obs.disable()
    obs.reset()


def _snapshot(delivered=500):
    registry = MetricsRegistry()
    hist = registry.histogram("repair_seconds", labels=("cause",),
                              buckets=LATENCY_BUCKETS)
    for value in (0.1, 0.2, 0.2, 0.4, 1.2):
        hist.labels(cause="quack").observe(value)
    decodes = registry.counter("decodes_total", labels=("status",))
    decodes.labels(status="ok").inc(98)
    decodes.labels(status="fail").inc(2)
    registry.counter("delivered_total", labels=()).labels().inc(delivered)
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
        for path in sorted((repo / "benchmarks" / "slo").glob("*.json")):
            assert load_budget_file(str(path))["budgets"], path

    @pytest.mark.parametrize("budget, why", [
        ({"metric": "m", "max": 1}, "string 'name'"),
        ({"name": 7, "metric": "m", "max": 1}, "string 'name'"),
        ({"name": "x", "max": 1}, "exactly one 'metric' or 'ratio_of'"),
        ({"name": "x", "metric": "m", "ratio_of": "m", "label": "s",
          "ok_values": ["ok"], "max": 1},
         "exactly one 'metric' or 'ratio_of'"),
        ({"name": "x", "metric": 3, "max": 1},
         "exactly one 'metric' or 'ratio_of'"),
        ({"name": "x", "metric": "m"}, "neither max nor min"),
        ({"name": "x", "metric": "m", "min": True}, "min must be a number"),
        ({"name": "x", "ratio_of": "m", "label": "s", "max": 0.1},
         "needs 'label' and 'ok_values'"),
    ])
    def test_malformed_budget_names_file_and_entry(self, tmp_path, budget,
                                                   why):
        path = self._write(tmp_path, {
            "kind": "slo-budgets", "schema": 1,
            "budgets": [{"name": "fine", "metric": "m", "max": 1}, budget]})
        with pytest.raises(ObservabilityError) as exc:
            load_budget_file(path)
        assert str(exc.value).startswith(f"{path}: budgets[1]: ")
        assert why in str(exc.value)

    @pytest.mark.parametrize("scenario, why", [
        ({"scenario": "no-such-scenario"}, "names no scenario"),
        ("retransmission", "names no scenario"),
        ({"scenario": "retransmission", "total_bytes": 1.5e5},
         "bad total_bytes=150000.0"),
        ({"scenario": "retransmission", "loss": "0.05"},
         "bad loss='0.05'"),
        ({"scenario": "retransmission", "seeds": 1}, "bad seeds=1"),
    ])
    def test_malformed_scenario_names_file_and_entry(self, tmp_path,
                                                     scenario, why):
        path = self._write(tmp_path, {
            "kind": "slo-budgets", "schema": 1,
            "scenarios": [scenario],
            "budgets": [{"name": "x", "metric": "m", "max": 1}]})
        with pytest.raises(ObservabilityError) as exc:
            load_budget_file(path)
        assert str(exc.value).startswith(f"{path}: scenarios[0]: ")
        assert why in str(exc.value)


class TestFormatting:
    BUDGETS = [{"name": "pass", "metric": "delivered_total", "stat": "value",
                "min": 1},
               {"name": "fail", "metric": "delivered_total", "stat": "value",
                "min": 10_000},
               {"name": "ghost", "metric": "nope_total", "max": 1}]

    def test_verdict_lines(self):
        section = verdict_section(
            "budget.json", evaluate_budgets(self.BUDGETS, _snapshot()), None)
        summary, table = section.items
        assert section.title == "budget.json"
        assert summary == "3 budgets, 2 VIOLATED"
        assert table.columns == ("budget", "baseline", "current", "ratio",
                                 "limit", "verdict")
        assert table.rows[:2] == [
            ("pass", "-", "500", "-", "min=1", "ok"),
            ("fail", "-", "500", "-", "min=10000", "FAIL")]
        assert table.rows[2][:5] == ("ghost", "-", "-", "-", "max=1")
        assert table.rows[2][5].startswith("FAIL (metric 'nope_total'")
        text = render_text([section])
        assert text.startswith("== budget.json ==\n3 budgets, 2 VIOLATED\n")

    def test_baseline_beside_current(self):
        # The baseline delivered half as much: ratio 2 on the counter, the
        # verdicts are the current side's (the baseline's 250 would fail
        # a min of 400, the current 500 passes).
        budgets = [{"name": "delivered", "metric": "delivered_total",
                    "stat": "value", "min": 400},
                   {"name": "p99", "metric": "repair_seconds",
                    "stat": "p99", "max": 2.0}]
        current = evaluate_budgets(budgets, _snapshot())
        baseline = evaluate_budgets(budgets, _snapshot(delivered=250))
        assert not baseline[0].ok
        summary, table = verdict_section("b.json", current, baseline).items
        assert summary == "2 budgets, all within budget"
        assert table.rows == [
            ("delivered", "250", "500", "2", "min=400", "ok"),
            ("p99", "1.5", "1.5", "1", "max=2", "ok")]

    def test_ratio_of_zero_sides(self):
        def verdict(observed):
            return BudgetVerdict(name="v", observed=observed, limit="max=9",
                                 ok=True)

        for before, after, ratio in ((0.0, 0.0, "1"), (0.0, 5.0, "-"),
                                     (5.0, 0.0, "0"), (None, 5.0, "-")):
            table = verdict_section("b.json", [verdict(after)],
                                    [verdict(before)]).items[1]
            assert table.rows[0][3] == ratio, (before, after)


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

    def test_against_itself_prints_ratio_one(self, capsys, tmp_path):
        from repro.cli import main

        snapshot = self._snapshot_file(tmp_path)
        for max_p99, code in ((2.0, 0), (0.25, 1)):
            budget = self._budget_file(tmp_path, max_p99)
            assert main(["slo", budget, "--snapshot", snapshot]) == code
            capsys.readouterr()
            assert main(["slo", budget, "--snapshot", snapshot,
                         "--against", snapshot]) == code
            row = capsys.readouterr().out.splitlines()[-1].split()
            assert row[2:5] == ["1.5", "1.5", "1"], row

    def _malformed(self, tmp_path, budget=None, scenario=None):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps({
            "kind": "slo-budgets", "schema": 1,
            "scenarios": [scenario or {"scenario": "retransmission",
                                       "seed": 1, "total_bytes": 20000}],
            "budgets": [budget or {"name": "x", "metric": "m", "max": 1}]}))
        return str(path)

    def test_string_bound_exits_two(self, capsys, tmp_path):
        from repro.cli import main

        path = self._malformed(tmp_path, budget={
            "name": "p99", "metric": "repair_seconds", "stat": "p99",
            "max": "5"})
        assert main(["slo", path, "--snapshot",
                     self._snapshot_file(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: budgets[0]: budget 'p99': max must be a number" \
            in err

    def test_non_object_budget_exits_two(self, capsys, tmp_path):
        from repro.cli import main

        path = self._malformed(tmp_path, budget=1)
        assert main(["slo", path, "--snapshot",
                     self._snapshot_file(tmp_path)]) == 2
        assert f"{path}: budgets[0]: a budget must be an object" \
            in capsys.readouterr().err

    def test_string_seed_exits_two_before_running(self, capsys, tmp_path):
        from repro.cli import main

        path = self._malformed(tmp_path, scenario={
            "scenario": "retransmission", "seed": "1",
            "total_bytes": 20000})
        assert main(["slo", path]) == 2
        captured = capsys.readouterr()
        assert "slo: running" not in captured.err
        assert f"{path}: scenarios[0]: bad seed='1'" \
            in captured.err

    def test_sweep_aggregate_without_telemetry_exits_two(self, capsys,
                                                         tmp_path):
        from repro.cli import main

        snapshot = tmp_path / "aggregate.json"
        snapshot.write_text(json.dumps({"kind": "sweep-aggregate"}))
        code = main(["slo", self._budget_file(tmp_path, 2.0),
                     "--snapshot", str(snapshot)])
        assert code == 2
        assert "--telemetry" in capsys.readouterr().err
