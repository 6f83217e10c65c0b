"""Tests for profile snapshots, folded export, and the diff engine."""

import json
import math

import pytest

from repro.errors import ObservabilityError
from repro.obs import perf
from repro.obs.profile import Profiler


def _profiled_run():
    profiler = Profiler()
    profiler.configure()
    with profiler.span("decode"):
        with profiler.span("newton"):
            sum(range(5000))
        with profiler.span("rootfind"):
            sum(range(5000))
    profiler.disable()
    return profiler


class TestProfileSnapshot:
    def test_snapshot_carries_sorted_paths(self):
        profiler = _profiled_run()
        doc = perf.profile_snapshot(profiler, scenario="unit", seed=7,
                                    git_rev="abc1234")
        assert doc["kind"] == "profile"
        assert doc["schema"] == perf.PROFILE_SCHEMA
        assert doc["scenario"] == "unit"
        assert doc["seed"] == 7
        assert doc["git_rev"] == "abc1234"
        paths = [span["path"] for span in doc["spans"]]
        assert paths == sorted(paths)
        assert "decode;newton" in paths

    def test_snapshot_roundtrip(self, tmp_path):
        doc = perf.profile_snapshot(_profiled_run(), scenario="unit",
                                    git_rev=None)
        path = str(tmp_path / "deep" / "profile.json")
        assert perf.write_profile(doc, path) == path  # makes the directory
        with open(path, encoding="utf-8") as handle:
            assert json.load(handle) == json.loads(json.dumps(doc))

    def test_format_profile_lists_heaviest_paths(self):
        # "format": the profile laid out as items of the report's time
        # section, which the two renderers walk.
        doc = perf.profile_snapshot(_profiled_run(), scenario="unit",
                                    git_rev="abc1234")
        wall, paths = perf.profile_items(doc, "decode", top=2)
        assert wall.startswith("wall clock: ")
        assert "inside named spans (commit abc1234)" in wall
        assert "1 more path(s) not shown" in paths.caption  # 3 paths, top=2
        assert paths.columns[-1] == "call path"
        self_ms = [float(row[0]) for row in paths.rows]
        assert len(self_ms) == 2 and self_ms == sorted(self_ms, reverse=True)
        share = float(wall.split(", ")[1].split("%")[0]) / 100
        decode = next(span for span in doc["spans"]
                      if span["path"] == "decode")
        assert share == pytest.approx(
            1 - decode["self_s"] / decode["cum_s"], abs=1e-3)

    def test_format_profile_includes_flow_table(self):
        doc = perf.profile_snapshot(
            _profiled_run(), scenario="unit", git_rev=None,
            flows={"kind": "flow-accounts", "schema": 1,
                   "total_bank_bytes": 82,
                   "flows": {"flow0": {"observed": 4, "frames_emitted": 2,
                                       "bytes_emitted": 164,
                                       "bank_bytes": 82}}})
        ledger = perf.profile_items(doc, "decode", top=20)[-1]
        assert ledger.rows == [("flow0", "4", "2", "164", "82")]

    def test_empty_profile_says_so(self):
        doc = perf.profile_snapshot(Profiler(), git_rev=None)
        assert perf.profile_items(doc, "run", top=5) == [
            "(no spans recorded)"]


class TestFolded:
    def test_folded_lines_are_sorted_integer_microseconds(self):
        doc = perf.profile_snapshot(_profiled_run(), git_rev=None)
        text = perf.render_folded(doc)
        lines = text.splitlines()
        assert lines == sorted(lines)
        for line in lines:
            stack, weight = line.rsplit(" ", 1)
            assert stack
            assert int(weight) > 0

    def test_folded_omits_zero_weight_paths(self):
        doc = {"kind": "profile", "schema": 1,
               "spans": [{"path": "a", "self_s": 0.0},
                         {"path": "b", "self_s": 0.5}]}
        assert perf.render_folded(doc) == "b 500000"

    def test_write_folded(self, tmp_path):
        doc = perf.profile_snapshot(_profiled_run(), git_rev=None)
        path = str(tmp_path / "out.folded")
        perf.write_folded(doc, path)
        with open(path, "r", encoding="utf-8") as handle:
            assert handle.read().rstrip("\n") == perf.render_folded(doc)


class TestGitRevision:
    def test_none_outside_a_repository(self, tmp_path):
        assert perf.git_revision(cwd=str(tmp_path)) is None

    def test_short_hash_inside_this_repository(self):
        rev = perf.git_revision()
        # Best-effort: the test tree is normally a git checkout, but a
        # tarball export legitimately yields None.
        assert rev is None or (rev and all(c in "0123456789abcdef"
                                           for c in rev))


class TestClassifyFlatten:
    def test_classify_unknown_raises(self):
        with pytest.raises(ObservabilityError):
            perf.flatten_snapshot({"kind": "mystery"})
        with pytest.raises(ObservabilityError):
            perf.flatten_snapshot({"area": "quack", "metrics": {}})

    def test_flatten_profile_self_time_and_calls(self):
        doc = perf.profile_snapshot(_profiled_run(), git_rev="r1")
        kind, flat, rev = perf.flatten_snapshot(doc)
        assert kind == "profile"
        assert rev == "r1"
        assert "decode;newton" in flat
        assert flat["calls:decode;newton"] == 1.0


class TestDiff:
    def test_ranking_is_deterministic_and_severity_ordered(self):
        entries = perf.diff_flat(
            {"a": 1.0, "b": 1.0, "c": 1.0, "gone": 5.0},
            {"a": 3.0, "b": 1.1, "c": 1.0, "new": 2.0})
        names = [entry.name for entry in entries]
        # One-sided entries first (inf severity), name tie-break.
        assert names[:2] == ["gone", "new"]
        assert names[2] == "a"  # 3x beats 1.1x
        severities = [entry.severity for entry in entries]
        assert severities == sorted(severities, reverse=True)

    def test_one_sided_never_trips_threshold(self):
        entries = perf.diff_flat({"gone": 5.0}, {"new": 2.0})
        assert all(not entry.exceeded for entry in entries)
        assert all(math.isinf(entry.severity) for entry in entries)

    def test_threshold_symmetry(self):
        entries = perf.diff_flat({"up": 1.0, "down": 9.0, "flat": 1.0},
                                 {"up": 3.0, "down": 3.0, "flat": 1.2},
                                 threshold=2.0)
        by_name = {entry.name: entry for entry in entries}
        assert by_name["up"].exceeded
        assert by_name["down"].exceeded  # a 3x improvement also ranks
        assert not by_name["flat"].exceeded

    def test_noise_floor_drops_tiny_series(self):
        entries = perf.diff_flat({"tiny": 1e-12}, {"tiny": 9e-12},
                                 min_abs=1e-9)
        assert entries == []

    def test_zero_crossing_exceeds(self):
        entries = perf.diff_flat({"z": 0.0}, {"z": 4.0})
        assert entries[0].exceeded
        assert entries[0].note == "moved across zero"

    def test_bad_threshold_raises(self):
        with pytest.raises(ObservabilityError):
            perf.diff_flat({}, {}, threshold=1.0)

    def test_diff_mismatched_kinds_raise(self, tmp_path):
        telemetry = tmp_path / "telemetry.json"
        telemetry.write_text(json.dumps({"kind": "telemetry", "schema": 1,
                                         "families": {}}))
        profile = tmp_path / "prof.json"
        profile.write_text(json.dumps({"kind": "profile", "schema": 1,
                                       "spans": []}))
        with pytest.raises(ObservabilityError):
            perf.diff_files(str(telemetry), str(profile))

    def test_diff_profiles(self, tmp_path):
        doc_a = perf.profile_snapshot(_profiled_run(), git_rev="rev-a")
        doc_b = json.loads(json.dumps(doc_a))
        for span in doc_b["spans"]:
            span["self_s"] *= 10.0
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        perf.write_profile(doc_a, a)
        perf.write_profile(doc_b, b)
        report = perf.diff_files(a, b)
        assert report.kind == "profile"
        assert report.baseline_rev == "rev-a"
        assert not report.ok
        text = perf.format_diff(report)
        assert "FAIL" in text
        assert "rev-a" in text

    def test_diff_telemetry_snapshots(self, tmp_path):
        from repro import obs

        obs.reset()
        obs.enable_metrics()
        obs.count("quack_decodes_total", status="ok")
        snapshot = obs.METRICS.snapshot()
        obs.disable()
        obs.reset()
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(snapshot))
        b.write_text(json.dumps(snapshot))
        report = perf.diff_files(str(a), str(b))
        assert report.kind == "telemetry"
        assert report.ok  # identical sides
