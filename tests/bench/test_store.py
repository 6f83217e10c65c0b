"""Tests for the benchmark snapshot store (repro.bench.store)."""

import json

import pytest

from repro.bench.store import (
    SCHEMA_VERSION,
    BenchSnapshot,
    Metric,
    compare_dirs,
    compare_snapshots,
    format_comparison,
    load_dir,
    load_snapshot,
    record,
    snapshot_path,
)
from repro.errors import BenchStoreError


def _snapshot(area="quack", **metrics):
    return BenchSnapshot(area=area,
                         metrics={name: metric
                                  for name, metric in metrics.items()})


def _metric(name, mean, direction="lower", **kwargs):
    return Metric(name=name, mean=mean, direction=direction, **kwargs)


class TestMetric:
    def test_bad_direction_rejected(self):
        with pytest.raises(BenchStoreError, match="direction"):
            Metric(name="x", mean=1.0, direction="sideways")

    def test_from_dict_ignores_unknown_keys(self):
        metric = Metric.from_dict("x", {"mean": 2.0, "unit": "us",
                                        "future_field": [1, 2, 3]})
        assert metric.mean == 2.0
        assert metric.direction == "lower"  # defaulted

    def test_from_dict_requires_mean(self):
        with pytest.raises(BenchStoreError, match="malformed"):
            Metric.from_dict("x", {"stdev": 1.0})


class TestRoundTrip:
    def test_record_writes_schema_valid_files(self, tmp_path):
        snapshots = record(str(tmp_path), areas=["protocols"], quick=True)
        assert set(snapshots) == {"protocols"}
        path = snapshot_path(str(tmp_path), "protocols")
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
        assert raw["schema"] == SCHEMA_VERSION
        assert raw["area"] == "protocols"
        assert raw["quick"] is True
        assert raw["fingerprint"]["python"]
        assert raw["recorded_at"]
        for metric in raw["metrics"].values():
            assert set(metric) >= {"mean", "stdev", "n", "unit",
                                   "direction"}

        loaded = load_snapshot(path)
        assert loaded.area == "protocols"
        assert loaded.metrics.keys() == snapshots["protocols"].metrics.keys()

    def test_unknown_area_rejected(self, tmp_path):
        with pytest.raises(BenchStoreError, match="unknown bench area"):
            record(str(tmp_path), areas=["nope"])

    def test_load_dir_collects_bench_files(self, tmp_path):
        record(str(tmp_path), areas=["protocols"], quick=True)
        (tmp_path / "unrelated.json").write_text("{}")
        snapshots = load_dir(str(tmp_path))
        assert set(snapshots) == {"protocols"}

    def test_deterministic_protocol_metrics_rerun_identically(self,
                                                              tmp_path):
        """Virtual-time sims are machine-independent: exact re-run."""
        first = record(str(tmp_path / "a"), areas=["protocols"],
                       quick=True)["protocols"]
        second = record(str(tmp_path / "b"), areas=["protocols"],
                        quick=True)["protocols"]
        for name, metric in first.metrics.items():
            assert second.metrics[name].mean == metric.mean


class TestForwardCompatibility:
    def _write(self, tmp_path, payload):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_unknown_toplevel_keys_ignored(self, tmp_path):
        path = self._write(tmp_path, {
            "schema": SCHEMA_VERSION, "area": "x",
            "metrics": {"m": {"mean": 1.0}},
            "some_future_section": {"anything": True},
        })
        snapshot = load_snapshot(path)
        assert snapshot.metrics["m"].mean == 1.0

    def test_newer_schema_refused(self, tmp_path):
        path = self._write(tmp_path, {
            "schema": SCHEMA_VERSION + 1, "area": "x", "metrics": {}})
        with pytest.raises(BenchStoreError, match="newer than"):
            load_snapshot(path)

    def test_not_json_refused(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text("][")
        with pytest.raises(BenchStoreError, match="not valid JSON"):
            load_snapshot(str(path))

    def test_missing_metrics_refused(self, tmp_path):
        path = self._write(tmp_path, {"schema": 1, "area": "x"})
        with pytest.raises(BenchStoreError, match="metrics"):
            load_snapshot(path)


class TestCompare:
    def test_identical_snapshots_pass(self):
        base = _snapshot(m=_metric("m", 10.0))
        comparison = compare_snapshots(base, base)
        assert comparison.ok
        assert comparison.deltas[0].ratio == pytest.approx(1.0)

    def test_injected_3x_slowdown_regresses(self):
        baseline = _snapshot(m=_metric("m", 10.0))
        current = _snapshot(m=_metric("m", 30.0))
        comparison = compare_snapshots(current, baseline, threshold=2.0)
        assert not comparison.ok
        assert comparison.regressions[0].name == "m"
        assert comparison.regressions[0].ratio == pytest.approx(3.0)

    def test_slowdown_within_threshold_passes(self):
        baseline = _snapshot(m=_metric("m", 10.0))
        current = _snapshot(m=_metric("m", 19.0))
        assert compare_snapshots(current, baseline, threshold=2.0).ok

    def test_higher_is_better_direction(self):
        baseline = _snapshot(g=_metric("g", 100.0, direction="higher"))
        faster = _snapshot(g=_metric("g", 300.0, direction="higher"))
        slower = _snapshot(g=_metric("g", 30.0, direction="higher"))
        assert compare_snapshots(faster, baseline, threshold=2.0).ok
        assert not compare_snapshots(slower, baseline, threshold=2.0).ok

    def test_info_metrics_never_regress(self):
        baseline = _snapshot(i=_metric("i", 1.0, direction="info"))
        current = _snapshot(i=_metric("i", 1000.0, direction="info"))
        assert compare_snapshots(current, baseline).ok

    def test_new_metric_noted_not_regressed(self):
        baseline = _snapshot(m=_metric("m", 1.0))
        current = _snapshot(m=_metric("m", 1.0), extra=_metric("extra", 5.0))
        comparison = compare_snapshots(current, baseline)
        assert comparison.ok
        notes = {delta.name: delta.note for delta in comparison.deltas}
        assert "no baseline" in notes["extra"]

    def test_disappeared_metric_regresses(self):
        baseline = _snapshot(m=_metric("m", 1.0), gone=_metric("gone", 2.0))
        current = _snapshot(m=_metric("m", 1.0))
        comparison = compare_snapshots(current, baseline)
        assert not comparison.ok
        assert comparison.regressions[0].name == "gone"

    def test_area_mismatch_rejected(self):
        with pytest.raises(BenchStoreError, match="cannot compare"):
            compare_snapshots(_snapshot(area="a"), _snapshot(area="b"))

    def test_silly_threshold_rejected(self):
        base = _snapshot(m=_metric("m", 1.0))
        with pytest.raises(BenchStoreError, match="threshold"):
            compare_snapshots(base, base, threshold=0.5)

    def test_zero_baseline_movement_regresses(self):
        baseline = _snapshot(m=_metric("m", 0.0))
        current = _snapshot(m=_metric("m", 5.0))
        comparison = compare_snapshots(current, baseline)
        assert not comparison.ok
        assert "zero baseline" in comparison.regressions[0].note


class TestCompareDirs:
    def test_directory_comparison_and_format(self, tmp_path):
        record(str(tmp_path / "base"), areas=["protocols"], quick=True)
        record(str(tmp_path / "cur"), areas=["protocols"], quick=True)
        comparisons = compare_dirs(str(tmp_path / "cur"),
                                   str(tmp_path / "base"))
        assert all(comparison.ok for comparison in comparisons)
        text = format_comparison(comparisons)
        assert "OK: no metric moved" in text
        assert "area protocols" in text

    def test_injected_slowdown_fails_dir_comparison(self, tmp_path):
        record(str(tmp_path / "base"), areas=["protocols"], quick=True)
        record(str(tmp_path / "cur"), areas=["protocols"], quick=True)
        # inject a 3x completion-time slowdown into the current snapshot
        path = snapshot_path(str(tmp_path / "cur"), "protocols")
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
        raw["metrics"]["cc_division_completion_s"]["mean"] *= 3
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(raw, handle)
        comparisons = compare_dirs(str(tmp_path / "cur"),
                                   str(tmp_path / "base"))
        assert not all(comparison.ok for comparison in comparisons)
        assert "FAIL" in format_comparison(comparisons)

    def test_no_common_areas_is_an_error(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        with pytest.raises(BenchStoreError, match="no common"):
            compare_dirs(str(tmp_path / "a"), str(tmp_path / "b"))


class TestProfilesAlongsideRecord:
    def test_record_writes_profile_per_area(self, tmp_path):
        from repro.bench.store import profile_path
        from repro.obs.perf import load_profile

        record(str(tmp_path), areas=["quack"], quick=True)
        path = profile_path(str(tmp_path), "quack")
        doc = load_profile(path)
        assert doc["scenario"] == "bench:quack"
        paths = {span["path"] for span in doc["spans"]}
        assert any(p.startswith("quack.decode") for p in paths)

    def test_record_profile_opt_out(self, tmp_path):
        from repro.bench.store import profile_path
        import os

        record(str(tmp_path), areas=["protocols"], quick=True,
               profile=False)
        assert not os.path.exists(profile_path(str(tmp_path), "protocols"))

    def test_profiled_pass_leaves_global_profiler_off(self, tmp_path):
        from repro import obs

        record(str(tmp_path), areas=["quack"], quick=True)
        assert not obs.PROFILER.enabled


class TestSimcoreArea:
    def test_simcore_metrics_and_directions(self, tmp_path):
        snapshot = record(str(tmp_path), areas=["simcore"], quick=True,
                          profile=False)["simcore"]
        metrics = snapshot.metrics
        assert metrics["events_per_sec"].direction == "higher"
        assert metrics["events_per_sec"].mean > 0
        assert metrics["timer_loop_events_per_sec"].direction == "higher"
        assert metrics["timer_loop_events_per_sec"].mean > 0
        assert metrics["packets_per_sec"].direction == "higher"
        assert metrics["packets_per_sec"].mean > 0
        # The cost signature is machine-independent: on the calendar
        # scheduler the burst workload never touches a binary heap
        # (near-horizon inserts are bucket appends), where a plain heap
        # does one push + one pop per event (2.0).
        assert metrics["heap_ops_per_event"].direction == "lower"
        assert metrics["heap_ops_per_event"].mean < 0.1

    def test_heap_ops_signature_is_deterministic(self, tmp_path):
        from repro.bench.store import collect_simcore

        first = collect_simcore(quick=True)
        second = collect_simcore(quick=True)
        assert first["heap_ops_per_event"].mean == \
            second["heap_ops_per_event"].mean
        assert first["sim_events_dispatched"].mean == \
            second["sim_events_dispatched"].mean


class TestGitRevision:
    def test_none_outside_a_repository(self, tmp_path):
        from repro.bench.store import git_revision

        assert git_revision(cwd=str(tmp_path)) is None

    def test_short_hash_inside_this_repository(self):
        from repro.bench.store import git_revision

        rev = git_revision()
        # Best-effort: the test tree is normally a git checkout, but a
        # tarball export legitimately yields None.
        assert rev is None or (rev and all(c in "0123456789abcdef"
                                           for c in rev))

    def test_legacy_unknown_rev_loads_as_none(self, tmp_path):
        path = tmp_path / "BENCH_quack.json"
        path.write_text(json.dumps({
            "schema": 1, "area": "quack", "git_rev": "unknown",
            "metrics": {"m": {"mean": 1.0}}}))
        assert load_snapshot(str(path)).git_rev is None
