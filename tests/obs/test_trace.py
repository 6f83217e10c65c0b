"""Tests for the structured trace log and its JSONL export."""

import io
import json

import pytest

from repro.errors import ObservabilityError
from repro.obs.metrics import MetricsRegistry, hist_quantile
from repro.obs.trace import (
    RingSink,
    TraceEvent,
    Tracer,
    dump_jsonl,
    export_jsonl,
)


class TestTraceEvent:
    def test_to_dict_shape(self):
        event = TraceEvent(1.25, "link.drop",
                           {"link": "a->b", "size": 1500, "reason": "queue",
                            "kind": "data"})
        record = event.to_dict()
        assert record["t"] == 1.25
        assert record["type"] == "link.drop"
        assert record["link"] == "a->b" and record["reason"] == "queue"

    def test_non_finite_fields_sanitized(self):
        event = TraceEvent(0.0, "transport.cwnd",
                           {"flow": "f", "cwnd": 1, "in_flight": 0,
                            "srtt": float("inf")})
        assert event.to_dict()["srtt"] is None


class TestRingSink:
    def test_caps_and_counts(self):
        sink = RingSink(capacity=3)
        for index in range(5):
            sink.emit(TraceEvent(float(index), "x.y", {}))
        assert len(sink) == 3
        assert sink.emitted == 5
        assert sink.dropped == 2
        # Oldest events went first.
        assert [event.time for event in sink.events] == [2.0, 3.0, 4.0]

    def test_capacity_validation(self):
        with pytest.raises(ObservabilityError):
            RingSink(capacity=0)

    def test_clear(self):
        sink = RingSink(capacity=2)
        sink.emit(TraceEvent(0.0, "x.y", {}))
        sink.clear()
        assert len(sink) == 0 and sink.emitted == 0 and sink.dropped == 0


class TestTracer:
    def test_disabled_emit_is_noop(self):
        tracer = Tracer(MetricsRegistry())
        tracer.emit("x.y", 0.0, a=1)
        assert tracer.events == []

    def test_configure_enables_and_captures(self):
        tracer = Tracer(MetricsRegistry())
        sink = tracer.configure(capacity=16)
        assert tracer.enabled
        tracer.emit("x.y", 1.0, a=1)
        assert len(sink) == 1
        assert sink.events[0].fields == {"a": 1}

    def test_disable_keeps_events_readable(self):
        tracer = Tracer(MetricsRegistry())
        tracer.configure()
        tracer.emit("x.y", 1.0)
        tracer.disable()
        tracer.emit("x.y", 2.0)  # ignored
        assert len(tracer.events) == 1

    def test_emit_derives_the_metrics_the_schema_declares(self):
        tracer = Tracer(MetricsRegistry())
        tracer.configure()
        for cause in ("ack", "ack", "pto"):
            tracer.emit("transport.retransmit", 1.0, flow="f", pn=7,
                        size=100, cause=cause, latency=0.1)
        tracer.emit("transport.send", 1.0, flow="f", pn=8, size=100)
        tracer.emit("transport.cwnd", 1.0, flow="f", cwnd=2920,
                    in_flight=0, srtt=0.05)
        tracer.emit("x.y", 1.0, a=1)  # no row: an event and nothing else
        assert tracer.registry.render_text().splitlines() == [
            f"{name:<58s} {value}" for name, value in (
                ("transport_cwnd_bytes{flow=f}", "2920"),
                ("transport_packets_sent_total{flow=f,retx=False}", "1"),
                ("transport_packets_sent_total{flow=f,retx=True}", "3"),
                ("transport_retransmits_total{cause=ack,flow=f}", "2"),
                ("transport_retransmits_total{cause=pto,flow=f}", "1"),
                ("transport_srtt_seconds{flow=f}", "0.05"))]
        assert len(tracer.events) == 6

    def test_metrics_only_mode_is_emit_without_a_sink(self):
        tracer = Tracer(MetricsRegistry())
        tracer.enabled = True  # what obs.enable_metrics() does
        tracer.emit("sidecar.batch_emit", 0.5, frames=3, flows=9)
        tracer.emit("sidecar.batch_emit", 0.6, frames=4, flows=9)
        tracer.emit("sidecar.retransmit", 0.7, flow="f", cause="quack",
                    latency=0.02)
        snap = tracer.registry.snapshot()["families"]
        assert snap["flowtable_frames_batched_total"]["series"] == [
            {"labels": {}, "value": 7.0}]
        repair = snap["sidecar_repair_latency_seconds"]["series"][0]
        assert repair["labels"] == {"cause": "quack"}
        assert repair["hist"]["count"] == 1
        assert hist_quantile(repair["hist"], 0.5) == 0.025  # latency buckets
        assert tracer.events == []

    def test_disabled_emit_touches_no_metric(self):
        tracer = Tracer(MetricsRegistry())
        tracer.emit("link.drop", 0.0, link="a->b", kind="data", size=1,
                    reason="queue")
        assert tracer.registry.snapshot()["families"] == {}

    def test_reconfigure_replaces_sink(self):
        tracer = Tracer(MetricsRegistry())
        tracer.configure()
        tracer.emit("x.y", 1.0)
        tracer.configure()
        assert tracer.events == []


class TestJsonlExport:
    def test_dump_valid_json_lines(self):
        events = [TraceEvent(0.5, "quack.decode",
                             {"status": "ok", "missing": 2}),
                  TraceEvent(1.0, "transport.cwnd",
                             {"flow": "f", "cwnd": 10, "in_flight": 5,
                              "srtt": float("nan")})]
        buffer = io.StringIO()
        assert dump_jsonl(events, buffer) == 2
        lines = buffer.getvalue().splitlines()
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["status"] == "ok"
        assert parsed[1]["srtt"] is None  # nan sanitized, still valid JSON

    def test_export_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        events = [TraceEvent(0.0, "link.deliver",
                             {"link": "a->b", "kind": "data", "size": 100})]
        assert export_jsonl(events, str(path)) == 1
        record = json.loads(path.read_text().strip())
        assert record == {"t": 0.0, "type": "link.deliver", "link": "a->b",
                          "kind": "data", "size": 100}
