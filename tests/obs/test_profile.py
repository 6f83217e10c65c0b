"""Tests for the hierarchical wall-clock profiler."""

import pytest

from repro.obs.profile import Profiler


class TestProfiler:
    def test_disabled_begin_is_falsy(self):
        profiler = Profiler()
        assert profiler.begin() == 0.0
        # end() without configure must be harmless.
        profiler.end("x", 0.0)

    def test_records_span_into_path_stats(self):
        profiler = Profiler()
        profiler.configure()
        started = profiler.begin("quack.newton")
        assert started > 0.0
        profiler.end("quack.newton", started)
        stat = profiler.path_stats()[("quack.newton",)]
        assert stat.calls == 1
        assert stat.cum_seconds >= 0.0

    def test_span_context_manager(self):
        profiler = Profiler()
        profiler.configure()
        with profiler.span("report.section"):
            pass
        assert profiler.path_stats()[("report.section",)].calls == 1

    def test_span_context_manager_disabled(self):
        profiler = Profiler()
        with profiler.span("x"):
            pass  # nothing recorded, nothing raised

    def test_disable_stops_recording(self):
        profiler = Profiler()
        profiler.configure()
        started = profiler.begin()
        profiler.disable()
        profiler.end("x", started)
        assert profiler.path_stats() == {}


class TestHierarchy:
    def _configured(self):
        profiler = Profiler()
        profiler.configure()
        return profiler

    def test_nested_spans_build_call_paths(self):
        profiler = self._configured()
        with profiler.span("outer"):
            with profiler.span("inner"):
                pass
        stats = profiler.path_stats()
        assert set(stats) == {("outer",), ("outer", "inner")}
        assert stats[("outer", "inner")].calls == 1
        assert stats[("outer",)].calls == 1

    def test_self_time_excludes_children(self):
        profiler = self._configured()
        with profiler.span("outer"):
            with profiler.span("inner"):
                sum(range(20_000))
        stats = profiler.path_stats()
        outer = stats[("outer",)]
        inner = stats[("outer", "inner")]
        assert outer.cum_seconds >= inner.cum_seconds
        assert outer.self_seconds <= outer.cum_seconds - inner.cum_seconds \
            + 1e-9
        assert inner.self_seconds == pytest.approx(inner.cum_seconds)

    def test_reentrant_same_name_nests(self):
        profiler = self._configured()
        with profiler.span("work"):
            with profiler.span("work"):
                pass
        stats = profiler.path_stats()
        assert set(stats) == {("work",), ("work", "work")}

    def test_exception_inside_span_unwinds_stack(self):
        profiler = self._configured()
        with pytest.raises(ValueError):
            with profiler.span("outer"):
                with profiler.span("inner"):
                    raise ValueError("boom")
        assert profiler.depth == 0
        stats = profiler.path_stats()
        assert ("outer", "inner") in stats
        assert ("outer",) in stats

    def test_abandoned_explicit_begin_is_discarded_as_orphan(self):
        profiler = self._configured()
        with profiler.span("outer"):
            # An explicit begin whose end is skipped by an exception.
            profiler.begin("leaky")
        # The orphan was discarded when "outer" ended: depth balanced,
        # no "leaky" path recorded, later spans attribute normally.
        assert profiler.depth == 0
        with profiler.span("next"):
            pass
        stats = profiler.path_stats()
        assert all("leaky" not in path for path in stats)
        assert ("next",) in stats

    def test_end_without_begin_records_flat_at_root(self):
        profiler = self._configured()
        profiler.end("stray", 1.0)  # started while disabled, say
        assert ("stray",) in profiler.path_stats()

    def test_reset_clears_paths_and_open_frames(self):
        profiler = self._configured()
        profiler.begin("open")
        profiler.reset()
        assert profiler.path_stats() == {}
        assert profiler.depth == 0

    def test_allocation_tracking_attributes_bytes(self):
        profiler = Profiler()
        profiler.configure(allocations=True)
        try:
            with profiler.span("alloc"):
                keep = [bytearray(64 * 1024)]
                assert keep
        finally:
            profiler.disable()
        stat = profiler.path_stats()[("alloc",)]
        assert stat.alloc_bytes > 0
