"""Tests for mergeable telemetry snapshots (repro.obs.aggregate)."""

import json

import pytest

from repro.errors import ObservabilityError
from repro.obs.aggregate import (
    combine_series,
    merge_snapshots,
    select_series,
)
from repro.obs.metrics import (
    LATENCY_BUCKETS,
    MetricsRegistry,
    hist_quantile,
    series_rows,
    summarize_hist,
)


def _registry(counter=0, gauge=None, observations=()):
    registry = MetricsRegistry()
    if counter:
        registry.counter("events_total", labels=("kind",)).labels(
            kind="x").inc(counter)
    if gauge is not None:
        registry.gauge("depth").labels().set(gauge)
    for value in observations:
        registry.histogram("lat_seconds", labels=(),
                           buckets=LATENCY_BUCKETS).labels().observe(value)
    return registry


class TestMergeableSnapshot:
    def test_zero_valued_series_dropped(self):
        registry = MetricsRegistry()
        registry.counter("events_total", labels=("kind",)).labels(kind="x")
        registry.histogram("lat_seconds", labels=()).labels()
        snapshot = registry.snapshot()
        assert snapshot["families"] == {}

    def test_snapshot_is_json_serializable(self):
        snapshot = _registry(counter=3, gauge=2.0,
                             observations=[0.1, 1.2]).snapshot()
        json.dumps(snapshot, allow_nan=False)
        assert snapshot["kind"] == "telemetry"
        assert set(snapshot["families"]) == {"events_total", "depth",
                                             "lat_seconds"}


class TestMerge:
    def test_counters_sum_gauges_max_hists_add(self):
        a = _registry(counter=3, gauge=5.0, observations=[0.1]).snapshot()
        b = _registry(counter=4, gauge=2.0,
                      observations=[1.2, 1.2]).snapshot()
        merged = merge_snapshots([a, b])
        counter = select_series(merged, "events_total", {"kind": "x"})
        assert counter[0]["value"] == 7
        assert select_series(merged, "depth")[0]["value"] == 5.0
        hist = select_series(merged, "lat_seconds")[0]["hist"]
        assert hist["count"] == 3
        assert hist["min"] == 0.1 and hist["max"] == 1.2

    def test_merge_is_commutative(self):
        a = _registry(counter=3, observations=[0.1, 0.4]).snapshot()
        b = _registry(counter=9, observations=[2.2]).snapshot()
        assert merge_snapshots([a, b]) == merge_snapshots([b, a])

    def test_empty_input_merges_to_empty(self):
        merged = merge_snapshots([])
        assert merged["families"] == {}

    def test_bucket_mismatch_rejected(self):
        a = {"buckets": [1.0, 2.0], "counts": [1, 0, 0], "sum": 0.5,
             "count": 1, "min": 0.5, "max": 0.5}
        b = {"buckets": [1.0, 5.0], "counts": [1, 0, 0], "sum": 0.5,
             "count": 1, "min": 0.5, "max": 0.5}
        with pytest.raises(ObservabilityError, match="mixed buckets"):
            combine_series([{"labels": {}, "hist": a},
                            {"labels": {"x": "y"}, "hist": b}], "histogram")
        assert combine_series([{"labels": {}, "hist": a},
                               {"labels": {"x": "y"}, "hist": a}],
                              "histogram") == {
            "buckets": [1.0, 2.0], "counts": [2, 0, 0], "sum": 1.0,
            "count": 2, "min": 0.5, "max": 0.5}

    def test_kind_clash_rejected(self):
        a = _registry(counter=1).snapshot()
        b = _registry(counter=1).snapshot()
        b["families"]["events_total"]["kind"] = "gauge"
        with pytest.raises(ObservabilityError,
                           match="already registered as counter"):
            merge_snapshots([a, b])

    def test_a_negative_gauge_is_not_lifted_to_zero(self):
        # The first sight of a series is taken as is; only a second
        # value competes with it.
        low, high = _registry(gauge=-3.0), _registry(gauge=-1.0)
        merged = merge_snapshots([low.snapshot(), high.snapshot()])
        assert select_series(merged, "depth")[0]["value"] == -1.0
        assert combine_series(
            select_series(low.snapshot(), "depth"), "gauge") == -3.0

    def test_non_telemetry_document_rejected(self):
        with pytest.raises(ObservabilityError, match="not a telemetry"):
            merge_snapshots([{"kind": "sweep-aggregate"}])

    def test_worker_split_equals_single_process(self):
        # The determinism claim: N observations split across processes
        # merge to exactly the single-process snapshot.  Binary-exact
        # values so float summation order cannot differ.
        values = [0.25, 0.5, 0.5, 2.0, 4.0]
        whole = _registry(counter=5, observations=values).snapshot()
        parts = [_registry(counter=2, observations=values[:2]).snapshot(),
                 _registry(counter=3, observations=values[2:]).snapshot()]
        assert merge_snapshots([whole]) == merge_snapshots(parts)


class TestQuantiles:
    def test_exact_to_bucket(self):
        snapshot = _registry(observations=[0.2] * 9 + [1.7]).snapshot()
        hist = select_series(snapshot, "lat_seconds")[0]["hist"]
        assert hist_quantile(hist, 0.5) == 0.25
        assert hist_quantile(hist, 0.99) == 2.0

    def test_overflow_rank_reports_observed_max(self):
        snapshot = _registry(observations=[42.0]).snapshot()
        hist = select_series(snapshot, "lat_seconds")[0]["hist"]
        assert hist_quantile(hist, 0.99) == 42.0

    def test_summaries(self):
        snapshot = _registry(counter=2,
                             observations=[0.2, 0.2, 1.7]).snapshot()
        summary = summarize_hist(
            select_series(snapshot, "lat_seconds")[0]["hist"])
        assert summary["count"] == 3
        assert summary["p50"] == 0.25 and summary["p999"] == 2.0
        assert series_rows(snapshot) == [
            ("events_total{kind=x}", "2"),
            ("lat_seconds", "count=3 mean=0.7 p50=0.25 p99=2 max=1.7")]


class TestSelect:
    def test_label_subset_match(self):
        registry = MetricsRegistry()
        family = registry.counter("events_total", labels=("kind", "flow"))
        family.labels(kind="x", flow="f0").inc(1)
        family.labels(kind="y", flow="f0").inc(2)
        snapshot = registry.snapshot()
        assert len(select_series(snapshot, "events_total")) == 2
        only_x = select_series(snapshot, "events_total", {"kind": "x"})
        assert len(only_x) == 1 and only_x[0]["value"] == 1

    def test_unknown_metric_selects_nothing(self):
        assert select_series(MetricsRegistry().snapshot(),
                             "nope_total") == []
