"""End-to-end tests: traced scenarios cover every core component."""

import json

import pytest

from repro import obs
from repro.errors import ObservabilityError
from repro.obs.analyze import Table, render_text
from repro.obs.runner import known_scenarios, run_report, run_traced
from repro.obs.schema import validate_file, validate_record
from repro.obs.trace import export_jsonl
from tests.obs.golden import digests, load_golden


@pytest.fixture(autouse=True)
def _clean_switchboard():
    """Never leak an enabled tracer into other tests."""
    yield
    obs.disable()
    obs.reset()


class TestRunTraced:
    def test_unknown_scenario(self):
        with pytest.raises(ObservabilityError, match="unknown scenario"):
            run_traced("nope")

    def test_known_scenarios_lists_experiments_and_plans(self):
        names = known_scenarios()
        assert "cc-division" in names
        assert "blackout" in names

    def test_experiment_covers_all_core_components(self):
        result = run_traced("cc-division", seed=1, total_bytes=60_000)
        assert result.missing_core_components() == []
        assert result.events_dropped == 0
        assert not obs.TRACER.enabled  # switched off on the way out
        for event in result.events:
            validate_record(event.to_dict())

    def test_chaos_plan_scenario(self):
        result = run_traced("blackout", seed=1, total_bytes=60_000)
        assert result.missing_core_components() == []
        assert result.outcome.ok

    def test_ring_capacity_bounds_memory(self):
        result = run_traced("cc-division", seed=1, total_bytes=60_000,
                            capacity=50)
        assert len(result.events) == 50
        assert result.events_dropped == result.events_emitted - 50

    def test_metrics_snapshot_is_json_safe(self):
        result = run_traced("cc-division", seed=1, total_bytes=60_000)
        json.dumps(result.metrics, allow_nan=False)  # must not raise
        assert "transport_packets_sent_total" in result.metrics["families"]

    def test_profiler_spans_recorded(self):
        run_traced("cc-division", seed=1, total_bytes=60_000)
        self_time, calls = obs.PROFILER.layer_times()
        assert calls["quack.insert"] and calls["quack.remove"]
        assert calls["quack.wire_encode"] and calls["quack.wire_decode"]
        # One root span covers the scenario: the wall time and, by its
        # self time, the part of it no layer accounts for.
        paths = obs.PROFILER.path_times()
        assert {path[0] for path in paths} == {"run"}
        runs, wall, outside = paths[("run",)]
        assert runs == calls["run"] == 1
        assert 0 < outside < wall
        assert not obs.PROFILER.enabled     # taken out on the way out

    def test_result_keeps_the_run_times_and_ledger(self):
        # The time section and --flame read what the run kept, not the
        # global recorder and ledger, which the next traced run clears.
        first = run_traced("retransmission", seed=1, total_bytes=60_000)
        kept = {path: list(stat) for path, stat in first.path_times.items()}
        assert ("run",) in kept and first.flows["flows"]
        flows = dict(first.flows["flows"])
        run_traced("blackout", seed=1, total_bytes=60_000)
        assert first.path_times == kept and first.flows["flows"] == flows
        assert run_traced("retransmission", seed=1, total_bytes=60_000,
                          profile=False).path_times == {}

    def test_unnegotiated_session_owes_no_quack_events(self):
        # downgrade-strip strips every HELLO: the session never
        # negotiates, so no quACK is emitted or decoded -- by design.
        result = run_traced("downgrade-strip", seed=1, total_bytes=60_000)
        assert not any(event.type == "sidecar.quack_emit"
                       for event in result.events)
        assert "quack" not in result.analysis.components
        assert result.missing_core_components() == []

    @pytest.mark.parametrize("scenario", known_scenarios())
    def test_same_process_runs_are_identical(self, scenario):
        """The whole observable surface -- events and metrics text --
        repeats exactly, the untraced unassisted baseline a plan measures
        first included, and matches the digests checked in as
        ``golden_traces.json``."""
        first = run_traced(scenario, seed=1)
        second = run_traced(scenario, seed=1)
        assert [event.to_dict() for event in first.events] \
            == [event.to_dict() for event in second.events]
        assert first.metrics == second.metrics
        assert first.missing_core_components() == []
        assert digests(first) == load_golden()[scenario], (
            "trace or result moved; if intended, regenerate with "
            "`PYTHONPATH=src python tests/obs/golden.py --write`")

    def test_golden_file_covers_exactly_the_known_scenarios(self):
        assert sorted(load_golden()) == sorted(known_scenarios())

    def test_metrics_do_not_depend_on_what_ran_before(self):
        """A run's metrics are a function of the run: series that only
        another scenario touched (wire errors, fault activations, health
        transitions) must not come back as zeros."""
        first = run_traced("ack-reduction", seed=1, total_bytes=60_000)
        other = run_traced("corruption", seed=1, total_bytes=60_000)
        third = run_traced("ack-reduction", seed=1, total_bytes=60_000)
        assert "sidecar_wire_errors_total" in other.metrics["families"]
        assert [event.to_dict() for event in first.events] \
            == [event.to_dict() for event in third.events]
        assert first.metrics == third.metrics

    def test_jsonl_export_validates(self, tmp_path):
        result = run_traced("ack-reduction", seed=2, total_bytes=60_000)
        path = tmp_path / "trace.jsonl"
        export_jsonl(result.events, str(path))
        components = validate_file(str(path))
        for name in ("link", "transport", "quack", "sidecar"):
            assert components.get(name, 0) > 0


class TestSummarize:
    def test_summary_text(self):
        """The run's report: the time section, then what the events say."""
        result = run_traced("cc-division", seed=1, total_bytes=60_000)
        report = run_report(result)
        assert [section.title for section in report] == [
            "time", "packets", "assistance", "coverage", "metrics"]
        text = render_text(report)
        assert "scenario: cc-division (seed 1)" in text
        assert "events by component" in text
        assert "WARNING" not in text
        time = report[0]
        layers, ledger, direct = (item for item in time.items
                                  if isinstance(item, Table))
        # Every layer the run entered, none twice, heaviest first.
        names = [row[-1] for row in layers.rows]
        assert len(names) == len(set(names)) > 10
        assert "run" not in names and "quack.insert" in names
        self_ms = [float(row[0]) for row in layers.rows]
        assert self_ms == sorted(self_ms, reverse=True)
        assert [row[0] for row in ledger.rows] == ["flow0", "proxy-upstream"]
        # Metrics no event field holds are the run's to state; the rest
        # the events derive, and the metrics section is exactly those.
        written = {row[0].split("{")[0] for row in direct.rows}
        assert written == {"trace_packets_total",
                           "transport_detect_latency_seconds"}
        assert report[1:] == result.analysis.report()
        assert not written & set(result.analysis.metrics["families"])

    def test_coverage_counters(self):
        """Coverage is itself a metric ``repro slo`` can budget."""
        result = run_traced("corruption", seed=1, total_bytes=1460 * 300)
        roots = result.analysis.spans.roots
        families = result.metrics["families"]
        assert {tuple(entry["labels"].items()): entry["value"] for entry
                in families["trace_packets_total"]["series"]} == {
            (("tree", "complete"),): sum(root.complete for root in roots)}
        transitions = families["trace_health_transitions_total"]["series"]
        assert transitions == [{"labels": {"cause": "recorded"},
                                "value": len(result.analysis.transitions)}]
        assert transitions[0]["value"] > 0
        assert (f"packets with a complete causal tree: {len(roots)} of "
                f"{len(roots)}") in render_text(result.analysis.report())
