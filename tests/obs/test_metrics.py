"""Tests for the labeled metrics registry."""

import json
import math

import pytest

from repro.errors import ObservabilityError
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    Metric,
    MetricsRegistry,
    hist_quantile,
    json_safe,
    series_rows,
    summarize_hist,
)


class TestJsonSafe:
    def test_finite_passthrough(self):
        assert json_safe(1.5) == 1.5
        assert json_safe(0) == 0
        assert json_safe("x") == "x"
        assert json_safe(None) is None

    def test_non_finite_to_none(self):
        assert json_safe(float("inf")) is None
        assert json_safe(float("-inf")) is None
        assert json_safe(float("nan")) is None


class TestCounter:
    def test_increments(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.snapshot() == 3.5

    def test_rejects_negative(self):
        with pytest.raises(ObservabilityError):
            Counter().inc(-1)


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge()
        gauge.set(10)
        gauge.inc(5)
        gauge.dec()
        assert gauge.snapshot() == 14.0


class TestHistogram:
    def test_observations(self):
        hist = Histogram(buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 5.0, 50.0):
            hist.observe(value)
        state = hist.snapshot()
        assert state["counts"] == [1, 1, 1, 1]  # the last is the overflow
        snap = summarize_hist(state)
        assert snap["count"] == 4
        assert snap["min"] == 0.05
        assert snap["max"] == 50.0
        assert snap["mean"] == pytest.approx(55.55 / 4)

    def test_quantile_from_buckets(self):
        hist = Histogram(buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 0.5, 1.5, 3.0):
            hist.observe(value)
        assert hist_quantile(hist.snapshot(), 0.5) == 1.0
        assert hist_quantile(hist.snapshot(), 1.0) == 4.0

    def test_empty_snapshot_has_no_extremes(self):
        snap = Histogram().snapshot()
        assert snap["count"] == 0
        assert snap["min"] is None and snap["max"] is None

    def test_quantile_validation(self):
        with pytest.raises(ObservabilityError):
            hist_quantile(Histogram().snapshot(), 1.5)

    def test_overflow_quantile_reports_observed_max(self):
        # Every sample lands past the last bound: the bound itself would
        # understate the tail, so the observed maximum is reported.
        hist = Histogram(buckets=(1.0, 2.0))
        for value in (5.0, 8.0, 50.0):
            hist.observe(value)
        assert hist_quantile(hist.snapshot(), 0.99) == 50.0
        assert hist_quantile(hist.snapshot(), 0.5) == 50.0

    def test_overflow_quantile_never_below_last_bound(self):
        snap = Histogram(buckets=(1.0, 2.0))
        snap.counts[-1] = 1  # overflow count with maximum unset
        snap.count = 1
        assert hist_quantile(snap.snapshot(), 0.99) == 2.0

    def test_needs_buckets(self):
        with pytest.raises(ObservabilityError):
            Histogram(buckets=())


class TestRegistry:
    def test_get_or_create_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total", labels=("a",))
        second = registry.counter("x_total", labels=("a",))
        assert first is second

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ObservabilityError):
            registry.gauge("x_total")

    def test_label_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total", labels=("a",))
        with pytest.raises(ObservabilityError):
            registry.counter("x_total", labels=("b",))

    def test_wrong_labels_on_child(self):
        registry = MetricsRegistry()
        family = registry.counter("x_total", labels=("a",))
        with pytest.raises(ObservabilityError):
            family.labels(b=1)

    def test_per_family_bucket_override(self):
        registry = MetricsRegistry()
        family = registry.histogram("lat_seconds", buckets=(0.5, 1.0, 3.0))
        family.labels().observe(2.0)
        assert hist_quantile(family.labels().snapshot(), 0.5) == 3.0
        # Re-registration with the same override is idempotent.
        assert registry.histogram("lat_seconds",
                                  buckets=(0.5, 1.0, 3.0)) is family

    def test_bucket_override_conflict_raises(self):
        registry = MetricsRegistry()
        registry.histogram("lat_seconds", buckets=(0.5, 1.0))
        with pytest.raises(ObservabilityError, match="bucket"):
            registry.histogram("lat_seconds", buckets=(0.5, 2.0))

    def test_children_keyed_by_label_values(self):
        registry = MetricsRegistry()
        family = registry.counter("x_total", labels=("a",))
        family.labels(a="one").inc()
        family.labels(a="one").inc()
        family.labels(a="two").inc()
        snap = family.snapshot()
        values = {tuple(s["labels"].items()): s["value"]
                  for s in snap["series"]}
        assert values[(("a", "one"),)] == 2.0
        assert values[(("a", "two"),)] == 1.0

    def test_reset_drops_families_and_series(self):
        # A series an earlier run touched must not come back as a zero:
        # what a run reads is a function of that run alone.
        registry = MetricsRegistry()
        registry.counter("x_total", labels=("a",)).labels(a="y").inc(5)
        registry.reset()
        assert registry.snapshot()["families"] == {}
        assert series_rows(registry.snapshot()) == []
        # ... and the name is free again, even with another label set.
        registry.counter("x_total").labels().inc(2)
        assert registry.snapshot()["families"]["x_total"]["series"] == [
            {"labels": {}, "value": 2.0}]

    def test_reset_drops_compiled_updaters(self):
        # Updaters cache children; a cache that outlived reset() would
        # keep counting into series the registry no longer holds.
        registry = MetricsRegistry()
        update = registry.updater(Metric("counter", "x_total", ("a",)))
        registry.updaters["x.y"] = (update,)
        update({"a": "y"})
        registry.reset()
        assert registry.updaters == {}

    def test_render_json_valid_with_infinite_gauge(self):
        # RttEstimator.min_rtt starts at inf; the export must stay JSON.
        registry = MetricsRegistry()
        registry.gauge("transport_min_rtt_seconds").labels().set(math.inf)
        parsed = json.loads(json.dumps(registry.snapshot(), allow_nan=False))
        series = parsed["families"]["transport_min_rtt_seconds"]["series"]
        assert series[0]["value"] is None

    def test_series_rows(self):
        registry = MetricsRegistry()
        registry.counter("x_total", labels=("a",)).labels(a="y").inc(3)
        assert series_rows(registry.snapshot()) == [("x_total{a=y}", "3")]

    def test_series_rows_empty(self):
        assert series_rows(MetricsRegistry().snapshot()) == []
