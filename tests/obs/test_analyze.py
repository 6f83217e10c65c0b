"""Tests for the trace-analytics engine (repro.obs.analyze)."""

import json

import pytest

from repro import obs
from repro.obs.analyze import (
    Chart,
    ParsedTrace,
    Section,
    Table,
    analyze,
    ascii_chart,
    load_trace,
    parse_lines,
    render_markdown,
    render_text,
)


@pytest.fixture(autouse=True)
def _clean_switchboard():
    yield
    obs.disable()
    obs.reset()


def _line(etype, t, **fields):
    return json.dumps({"t": t, "type": etype, **fields})


def _text(analysis, **options):
    return render_text(analysis.report(**options))


def _flow_lines(flow, t0=0.0, pn0=0):
    """A tiny but complete single-connection trace fragment (context ids
    are per flow: the flow name's digit times 100)."""
    ctx = int(flow[-1]) * 100
    return [
        _line("transport.send", t0 + 0.00, flow=flow, pn=pn0, size=1200,
              ctx=ctx),
        _line("transport.cwnd", t0 + 0.01, flow=flow, cwnd=14_400,
              in_flight=1200, srtt=0.05),
        _line("transport.send", t0 + 0.02, flow=flow, pn=pn0 + 1, size=1200,
              ctx=ctx + 1),
        _line("transport.loss", t0 + 0.10, flow=flow, pn=pn0,
              trigger="sidecar", congestion=True, ctx=ctx),
        _line("transport.retransmit", t0 + 0.11, flow=flow, pn=pn0 + 2,
              size=1200, cause="quack", latency=0.10, ctx=ctx + 2,
              parent_ctx=ctx),
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

    def test_non_finite_timestamps_are_malformed(self):
        """The exporter never writes one (non-finite -> null), but
        ``json.loads`` reads the tokens; one ``inf`` would become the
        trace's end time."""
        lines = ['{"t": NaN, "type": "transport.send", "flow": "flow0", '
                 '"pn": 0, "size": 1}',
                 '{"t": Infinity, "type": "transport.complete", '
                 '"flow": "flow0", "bytes": 1}',
                 _line("transport.send", 0.1, flow="flow0", pn=0, size=1)]
        trace = parse_lines(lines)
        assert trace.malformed == 2 and len(trace.records) == 1
        analysis = analyze(trace)
        assert (analysis.start, analysis.end) == (0.1, 0.1)
        assert analysis.completed == {}
        assert "1 events (2 malformed lines skipped), t=0.100..0.100 s" \
            in _text(analysis)

    def test_events_and_lines_normalise_alike(self):
        from repro.obs.trace import TraceEvent

        fields = dict(flow="flow0", pn=0, size=1)
        as_event = parse_lines([TraceEvent(0.5, "transport.send", fields)])
        as_line = parse_lines([_line("transport.send", 0.5, **fields)])
        assert as_event == as_line and as_event.malformed == 0

    def test_unknown_event_types_kept(self):
        trace = parse_lines([_line("future.event", 1.0, anything=1)])
        assert trace.malformed == 0
        assert len(trace.records) == 1

    def test_load_trace_reads_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join(_flow_lines("flow0")) + "\ngarbage\n")
        trace = load_trace(str(path))
        assert trace.malformed == 1
        assert len(trace.records) == 7


class TestAnalyzeEmpty:
    def test_empty_trace(self):
        analysis = analyze(ParsedTrace(records=[], malformed=0))
        assert analysis.events == 0
        assert analysis.flows == []
        assert analysis.spans.retransmissions() == []
        assert analysis.decodes == []
        assert not analysis.truncated
        assert "nothing to analyze" in _text(analysis)
        render_markdown(analysis.report())  # must not raise

    def test_malformed_only_trace(self):
        trace = parse_lines(["{{{{", "nope"])
        analysis = analyze(trace)
        assert analysis.events == 0
        assert analysis.malformed == 2
        assert "2 malformed" in _text(analysis)


class TestSingleConnection:
    def test_timeline_and_attribution(self):
        trace = parse_lines(_flow_lines("flow0"))
        analysis = analyze(trace)
        assert analysis.flows == ["flow0"]
        # Counts are read from the metrics the events derive ...
        assert analysis.count("transport_packets_sent_total",
                              flow="flow0", retx=False) == 2
        assert analysis.count("transport_packets_sent_total",
                              flow="flow0", retx=True) == 1
        assert analysis.by_label("transport_losses_total", "trigger",
                                 flow="flow0") == {"sidecar": 1}
        # ... and only what no counter holds is collected.
        assert analysis.completed["flow0"] == (pytest.approx(0.20), 2400)
        points = analysis.points["flow0"]
        assert [p.time for p in points] == [pytest.approx(0.01),
                                            pytest.approx(0.12)]
        assert [p.cwnd for p in points] == [14_400.0, 7_200.0]
        assert [p.srtt for p in points] == [0.05, 0.06]

        assert analysis.spans.retransmissions() == [("quack", 0.10)]
        assert not analysis.truncated and analysis.unreadable == 0
        packets = analysis.report()[0]
        connections, cwnd, srtt, _trees, _fates, attribution = packets.items
        assert connections.rows == [
            ("flow0", "2", "1", "1", "0", "0.200", "2,400", "2")]
        assert isinstance(cwnd, Chart) and cwnd.values == [14_400.0, 7_200.0]
        assert srtt.values == [50.0, 60.0]
        assert attribution.rows == [
            ("quack", "1", "100.00", "100.00", "100.00")]

    def test_out_of_order_records_are_sorted(self):
        lines = _flow_lines("flow0")
        trace = parse_lines(reversed(lines))
        analysis = analyze(trace)
        assert analysis.start == pytest.approx(0.0)
        assert analysis.end == pytest.approx(0.20)
        times = [point.time for point in analysis.points["flow0"]]
        assert times == sorted(times)


class TestMultiConnection:
    def test_interleaved_flows_separate_cleanly(self):
        lines = []
        # interleave two connections line by line
        for a, b in zip(_flow_lines("flow0", t0=0.0),
                        _flow_lines("flow1", t0=0.005)):
            lines.extend([a, b])
        analysis = analyze(parse_lines(lines))
        assert analysis.flows == ["flow0", "flow1"]
        for flow in ("flow0", "flow1"):
            assert analysis.count("transport_packets_sent_total",
                                  flow=flow, retx=False) == 2
            assert analysis.count("transport_packets_sent_total",
                                  flow=flow, retx=True) == 1
            assert analysis.completed[flow][1] == 2400
        assert {span.flow for span in analysis.spans.spans.values()
                if span.parent_ctx is not None} == {"flow0", "flow1"}

    def test_flow_selection_in_render(self):
        lines = _flow_lines("flow0") + _flow_lines("flow1", t0=1.0)
        analysis = analyze(parse_lines(lines))
        text = _text(analysis, flows=["flow1"])
        assert "flow1 cwnd bytes" in text
        assert "flow0" not in text.split("== assistance ==")[0]


class TestTruncation:
    def test_min_pn_above_zero_flags_truncation(self):
        trace = parse_lines(_flow_lines("flow0", pn0=40))
        analysis = analyze(trace)
        assert analysis.truncated
        assert analysis.spans.lowest_pn() == {"flow0": 40}
        assert "WARNING: trace is truncated" in _text(analysis)
        assert "WARNING: trace is truncated" \
            in render_markdown(analysis.report())

    def test_explicit_dropped_count_flags_truncation(self):
        """What the ring dropped is known to the live run alone, so its
        count is stated by the run's own (time) section."""
        from repro.obs.runner import run_report, run_traced

        result = run_traced("cc-division", seed=1, total_bytes=60_000,
                            capacity=40)
        time = run_report(result, top=5)[0]
        assert time.title == "time"
        dropped, emitted = result.events_dropped, result.events_emitted
        assert dropped == emitted - 40
        assert (f"WARNING: ring buffer truncated the trace -- "
                f"dropped/emitted = {dropped}/{emitted}") \
            in render_text([time])

    def test_truncated_ring_run_is_detected(self):
        """A real ring-capped run analyzes without crashing and flags it
        from the events alone, by the lowest packet number they hold."""
        from repro.obs.runner import run_traced

        result = run_traced("cc-division", seed=1, total_bytes=60_000,
                            capacity=200)
        assert result.events_dropped > 0
        assert result.analysis.truncated
        assert result.analysis.spans.lowest_pn()["flow0"] > 0
        assert "WARNING: trace is truncated" in _text(result.analysis)


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
        assert [(status, missing) for _time, status, missing
                in analysis.decodes] == [
            ("ok", 2), ("ok", 5), ("threshold_exceeded", 30)]
        assert analysis.by_label("quack_decodes_total", "status") == {
            "ok": 2, "threshold_exceeded": 1}
        assert analysis.false_positive_resets == 0
        text = _text(analysis)
        assert ("quACK decode health: 3 decodes, 66.7% ok (failures: "
                "threshold_exceeded=1)") in text
        assert "missing-set size: mean 12.33, max 30" in text
        assert ("resets: 1 (0 false-positive; threshold_exceeded=1), "
                "wire errors: 1") in text

    def test_false_positive_reset_detected(self):
        lines = [
            _line("quack.decode", 0.1, status="ok", missing=0),
            _line("sidecar.reset", 0.2, flow="flow0", epoch=1,
                  reason="spurious"),
        ]
        analysis = analyze(parse_lines(lines))
        assert analysis.false_positive_resets == 1

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
        dwell = analysis.dwell()
        assert dwell["healthy"] == pytest.approx(2.0)  # 0..1 and 3..4
        assert dwell["degraded"] == pytest.approx(2.0)
        assistance = analysis.report()[1]
        assert "2 transitions, final state healthy" in assistance.items
        # Why the ladder moved: each step with the reason it recorded.
        why = next(item for item in assistance.items
                   if isinstance(item, Table))
        assert why.rows == [
            ("healthy -> degraded", "decode_failures", "1", "1.000", "1.000"),
            ("degraded -> healthy", "recovered", "1", "3.000", "3.000")]
        assert "health transitions with a recorded reason: 2 of 2" \
            in analysis.report()[2].items

    def test_transition_without_a_reason_is_a_coverage_gap(self):
        lines = [_line("sidecar.health", 1.0, old="healthy", new="degraded",
                       reason="")]
        coverage = analyze(parse_lines(lines)).report()[2]
        assert "health transitions with a recorded reason: 0 of 1" \
            in coverage.items


class TestUnattributed:
    def test_pre_tagging_retransmits_counted_not_guessed(self):
        lines = [  # a retransmit event without the cause/latency fields
            json.dumps({"t": 0.5, "type": "transport.retransmit",
                        "flow": "flow0", "pn": 3, "size": 1200, "ctx": 4}),
        ]
        analysis = analyze(parse_lines(lines))
        assert analysis.spans.retransmissions() == [(None, None)]
        # The metrics table reads ``cause``: the event feeds no counter.
        assert analysis.unreadable == 1
        text = _text(analysis)
        assert "1 retransmits carried no cause tag" in text
        assert "1 events lacked a field their type declares" in text

    def test_retransmits_without_context_are_counted_not_attributed(self):
        lines = [_line("transport.retransmit", 0.5, flow="flow0", pn=3,
                       size=1200, cause="ack", latency=0.1)]
        text = _text(analyze(parse_lines(lines)))
        assert "loss-recovery attribution (0 retransmits)" in text
        assert "1 retransmits are in no span tree" in text

    def test_mistyped_fields_are_counted_never_raised(self):
        lines = [_line("transport.cwnd", 0.1, flow="flow0", cwnd="wide",
                       in_flight=0, srtt=0.05),
                 _line("quack.decode", 0.2, status="ok"),
                 _line("transport.cwnd", 0.3, flow="flow0", cwnd=1200,
                       in_flight=0, srtt=None)]
        analysis = analyze(parse_lines(lines))
        assert analysis.unreadable == 3 and analysis.decodes == []


class TestEndToEnd:
    def test_real_run_fully_attributed(self, tmp_path):
        """Every retransmit in a live lossy run gets a known cause."""
        from repro.obs import export_jsonl
        from repro.obs.runner import run_traced

        result = run_traced("retransmission", seed=1, total_bytes=200_000)
        path = tmp_path / "trace.jsonl"
        export_jsonl(result.events, str(path))
        analysis = analyze(load_trace(str(path)))

        assert analysis.malformed == 0 and analysis.unreadable == 0
        assert analysis.flows  # at least one connection seen
        retransmits = analysis.count("transport_packets_sent_total",
                                     retx=True) \
            + analysis.count("sidecar_retransmissions_total")
        assert retransmits > 0, "lossy run must retransmit"
        attributed = analysis.spans.retransmissions()
        assert len(attributed) == retransmits
        for cause, latency in attributed:
            assert cause in ("quack", "ack", "pto")
            assert latency is not None and latency > 0
        # The file says what the run said: same sections, same text.
        assert analysis.report() == result.analysis.report()
        assert "loss-recovery attribution" in _text(analysis)
        assert "**loss-recovery attribution" \
            in render_markdown(analysis.report())


class TestRenderers:
    """The two renderers walk sections of lines, tables and charts and
    know nothing else."""

    REPORT = [Section("first", ["a line",
                                Table("caption", ("name", "n"),
                                      [("x", "1"), ("longer", "22")]),
                                Chart("ramp", [0.0, 1.0], 2)]),
              Section("second", [Table("", ("only",), [])])]

    def test_text(self):
        assert render_text(self.REPORT, width=2).splitlines() == [
            "== first ==", "a line", "caption",
            "  name     n", "  x        1", "  longer  22",
            "ramp  [min 0, max 1]", " #", "##",
            "", "== second ==", "  only"]

    def test_markdown(self):
        assert render_markdown(self.REPORT).splitlines() == [
            "## first", "", "* a line", "", "**caption**", "",
            "| name | n |", "|---|---|", "| x | 1 |", "| longer | 22 |", "",
            "```", "ramp  [min 0, max 1]", " #", "##", "```", "",
            "## second", "", "| only |", "|---|"]

    def test_renderers_name_no_event_and_no_metric(self):
        """One pass, one formatter: a new event type or metric touches a
        section builder, never a renderer."""
        import inspect

        from repro.obs.schema import EVENT_METRICS, EVENT_SCHEMA

        vocabulary = set(EVENT_SCHEMA) | {
            row.name for rows in EVENT_METRICS.values() for row in rows}
        for renderer in (render_text, render_markdown, ascii_chart):
            source = inspect.getsource(renderer)
            assert not [name for name in vocabulary if name in source]


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
