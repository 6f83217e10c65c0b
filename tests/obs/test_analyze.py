"""Tests for the trace-analytics engine (repro.obs.analyze)."""

import json

import pytest

from repro import obs
from repro.obs.analyze import (
    ConnectionTimeline,
    ParsedTrace,
    analyze,
    ascii_chart,
    load_trace,
    parse_lines,
)


@pytest.fixture(autouse=True)
def _clean_switchboard():
    yield
    obs.disable()
    obs.reset()


def _line(etype, t, **fields):
    return json.dumps({"t": t, "type": etype, **fields})


def _flow_lines(flow, t0=0.0, pn0=0):
    """A tiny but complete single-connection trace fragment."""
    return [
        _line("transport.send", t0 + 0.00, flow=flow, pn=pn0, size=1200),
        _line("transport.cwnd", t0 + 0.01, flow=flow, cwnd=14_400,
              in_flight=1200, srtt=0.05),
        _line("transport.send", t0 + 0.02, flow=flow, pn=pn0 + 1, size=1200),
        _line("transport.loss", t0 + 0.10, flow=flow, pn=pn0,
              trigger="sidecar", congestion=True),
        _line("transport.retransmit", t0 + 0.11, flow=flow, pn=pn0 + 2,
              size=1200, cause="quack", latency=0.10),
        _line("transport.cwnd", t0 + 0.12, flow=flow, cwnd=7200,
              in_flight=2400, srtt=0.06),
        _line("transport.complete", t0 + 0.20, flow=flow, bytes=2400),
    ]


class TestParsing:
    def test_empty_input(self):
        trace = parse_lines([])
        assert trace.records == []
        assert trace.malformed == 0

    def test_blank_lines_skipped_silently(self):
        trace = parse_lines(["", "   ", "\n"])
        assert trace.records == []
        assert trace.malformed == 0

    def test_malformed_lines_counted_never_raised(self):
        lines = [
            "not json at all {",
            json.dumps(["an", "array"]),
            json.dumps({"type": "transport.send"}),          # no t
            json.dumps({"t": 1.0}),                          # no type
            json.dumps({"t": True, "type": "transport.send"}),  # bool t
            _line("transport.send", 0.5, flow="flow0", pn=0, size=1),
        ]
        trace = parse_lines(lines)
        assert trace.malformed == 5
        assert len(trace.records) == 1

    def test_unknown_event_types_kept(self):
        trace = parse_lines([_line("future.event", 1.0, anything=1)])
        assert trace.malformed == 0
        assert len(trace.records) == 1

    def test_load_trace_reads_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join(_flow_lines("flow0")) + "\ngarbage\n")
        trace = load_trace(str(path))
        assert trace.source == str(path)
        assert trace.malformed == 1
        assert len(trace.records) == 7


class TestAnalyzeEmpty:
    def test_empty_trace(self):
        analysis = analyze(ParsedTrace(records=[], malformed=0))
        assert analysis.events == 0
        assert analysis.connections == {}
        assert analysis.attribution.total == 0
        assert analysis.decode.decodes == 0
        assert not analysis.truncated
        text = analysis.render_text()
        assert "nothing to analyze" in text
        analysis.render_markdown()  # must not raise

    def test_malformed_only_trace(self):
        trace = parse_lines(["{{{{", "nope"])
        analysis = analyze(trace)
        assert analysis.events == 0
        assert analysis.malformed == 2
        assert "2 malformed" in analysis.render_text()


class TestSingleConnection:
    def test_timeline_and_attribution(self):
        trace = parse_lines(_flow_lines("flow0"))
        analysis = analyze(trace)
        assert set(analysis.connections) == {"flow0"}
        timeline = analysis.connections["flow0"]
        assert timeline.sends == 2
        assert timeline.retransmits == 1
        assert timeline.losses == 1
        assert timeline.completed_at == pytest.approx(0.20)
        assert timeline.completed_bytes == 2400
        assert len(timeline.points) == 2
        times, cwnd = timeline.series("cwnd")
        assert times == [pytest.approx(0.01), pytest.approx(0.12)]
        assert cwnd == [14_400.0, 7_200.0]

        stats = analysis.attribution.by_cause()
        assert set(stats) == {"quack"}
        assert stats["quack"].count == 1
        assert stats["quack"].mean_latency == pytest.approx(0.10)
        assert analysis.attribution.unattributed == 0
        assert not analysis.truncated

    def test_out_of_order_records_are_sorted(self):
        lines = _flow_lines("flow0")
        trace = parse_lines(reversed(lines))
        analysis = analyze(trace)
        assert analysis.start == pytest.approx(0.0)
        assert analysis.end == pytest.approx(0.20)
        times, _ = analysis.connections["flow0"].series("cwnd")
        assert times == sorted(times)


class TestMultiConnection:
    def test_interleaved_flows_separate_cleanly(self):
        lines = []
        # interleave two connections line by line
        for a, b in zip(_flow_lines("flow0", t0=0.0),
                        _flow_lines("flow1", t0=0.005)):
            lines.extend([a, b])
        analysis = analyze(parse_lines(lines))
        assert set(analysis.connections) == {"flow0", "flow1"}
        for flow in ("flow0", "flow1"):
            timeline = analysis.connections[flow]
            assert timeline.sends == 2
            assert timeline.retransmits == 1
            assert timeline.completed_bytes == 2400
        causes = {record.flow for record in analysis.attribution.records}
        assert causes == {"flow0", "flow1"}

    def test_flow_selection_in_render(self):
        lines = _flow_lines("flow0") + _flow_lines("flow1", t0=1.0)
        analysis = analyze(parse_lines(lines))
        text = analysis.render_text(flows=["flow1"])
        assert "connection flow1" in text
        assert "connection flow0" not in text


class TestTruncation:
    def test_min_pn_above_zero_flags_truncation(self):
        trace = parse_lines(_flow_lines("flow0", pn0=40))
        analysis = analyze(trace)
        assert analysis.truncated
        assert "truncated" in analysis.render_text()
        assert "Warning" in analysis.render_markdown()

    def test_explicit_dropped_count_flags_truncation(self):
        trace = parse_lines(_flow_lines("flow0"))
        analysis = analyze(trace, dropped_events=17)
        assert analysis.truncated
        assert "17 events dropped" in analysis.render_text()

    def test_truncated_ring_run_is_detected(self):
        """A real ring-capped run analyzes without crashing and flags it."""
        from repro.obs.runner import run_traced

        result = run_traced("cc-division", seed=1, total_bytes=60_000,
                            capacity=40)
        assert result.events_dropped > 0
        analysis = analyze(result.events,
                           dropped_events=result.events_dropped)
        assert analysis.truncated
        analysis.render_text()  # must not raise on a partial trace


class TestDecodeAndHealth:
    def test_decode_health_series(self):
        lines = [
            _line("quack.decode", 0.1, status="ok", missing=2),
            _line("quack.decode", 0.2, status="ok", missing=5),
            _line("quack.decode", 0.3, status="threshold_exceeded",
                  missing=30),
            _line("sidecar.reset", 0.35, flow="flow0", epoch=1,
                  reason="threshold_exceeded"),
            _line("sidecar.wire_error", 0.4, flow="flow0"),
        ]
        analysis = analyze(parse_lines(lines))
        decode = analysis.decode
        assert decode.decodes == 3
        assert decode.success_rate == pytest.approx(2 / 3)
        assert decode.failures() == {"threshold_exceeded": 1}
        assert decode.max_missing == 30
        assert decode.resets == 1
        assert decode.false_positive_resets == 0
        assert decode.wire_errors == 1

    def test_false_positive_reset_detected(self):
        lines = [
            _line("quack.decode", 0.1, status="ok", missing=0),
            _line("sidecar.reset", 0.2, flow="flow0", epoch=1,
                  reason="spurious"),
        ]
        analysis = analyze(parse_lines(lines))
        assert analysis.decode.false_positive_resets == 1

    def test_health_dwell_times(self):
        lines = [
            _line("transport.send", 0.0, flow="flow0", pn=0, size=1),
            _line("sidecar.health", 1.0, old="healthy", new="degraded",
                  reason="decode_failures"),
            _line("sidecar.health", 3.0, old="degraded", new="healthy",
                  reason="recovered"),
            _line("transport.complete", 4.0, flow="flow0", bytes=1),
        ]
        analysis = analyze(parse_lines(lines))
        dwell = analysis.health.dwell_s
        assert dwell["healthy"] == pytest.approx(2.0)  # 0..1 and 3..4
        assert dwell["degraded"] == pytest.approx(2.0)
        assert analysis.health.final_state == "healthy"


class TestUnattributed:
    def test_pre_tagging_retransmits_counted_not_guessed(self):
        lines = [  # a retransmit event without the cause/latency fields
            json.dumps({"t": 0.5, "type": "transport.retransmit",
                        "flow": "flow0", "pn": 3, "size": 1200}),
        ]
        analysis = analyze(parse_lines(lines))
        assert analysis.attribution.unattributed == 1
        assert analysis.attribution.records == []
        assert "no cause tag" in analysis.render_text()


class TestEndToEnd:
    def test_real_run_fully_attributed(self, tmp_path):
        """Every retransmit in a live lossy run gets a known cause."""
        from repro.obs import export_jsonl
        from repro.obs.runner import run_traced

        result = run_traced("retransmission", seed=1, total_bytes=200_000)
        path = tmp_path / "trace.jsonl"
        export_jsonl(result.events, str(path))
        analysis = analyze(load_trace(str(path)))

        assert analysis.malformed == 0
        assert analysis.connections  # at least one connection seen
        retransmits = sum(t.retransmits
                          for t in analysis.connections.values())
        assert retransmits > 0, "lossy run must retransmit"
        assert analysis.attribution.unattributed == 0
        for record in analysis.attribution.records:
            assert record.cause in ("quack", "ack", "pto")
            assert record.latency is not None and record.latency > 0
        # both render paths digest a real trace
        text = analysis.render_text()
        assert "loss-recovery attribution" in text
        markdown = analysis.render_markdown()
        assert "## Loss-recovery attribution" in markdown


class TestAsciiChart:
    def test_renders_expected_shape(self):
        chart = ascii_chart([0, 1, 2, 3, 4, 5], width=6, height=3,
                            label="ramp")
        lines = chart.splitlines()
        assert lines[0].startswith("ramp")
        assert len(lines) == 4
        assert len(lines[1]) == 6
        # Top row only shows the highest values; bottom row shows all.
        assert lines[1].count("#") < lines[3].count("#")

    def test_single_value(self):
        chart = ascii_chart([7.0], width=5, height=3, label="one")
        lines = chart.splitlines()
        assert "min 7" in lines[0] and "max 7" in lines[0]
        # One column, painted at least on the bottom row.
        assert lines[-1].count("#") == 1

    def test_flat_series(self):
        chart = ascii_chart([5, 5, 5], width=3, height=2)
        lines = chart.splitlines()
        assert "#" in lines[-1]

    def test_empty_series(self):
        assert "(no data)" in ascii_chart([], label="x")

    def test_buckets_longer_series(self):
        chart = ascii_chart(list(range(1000)), width=10, height=2)
        assert len(chart.splitlines()[1]) == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            ascii_chart([1], width=0)
        with pytest.raises(ValueError):
            ascii_chart([1], height=0)
