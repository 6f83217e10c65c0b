"""Tests for the flight recorder (repro.obs.flight)."""

import json

import pytest

from repro import obs
from repro.errors import ObservabilityError
from repro.obs.flight import FlightRecorder


@pytest.fixture(autouse=True)
def _clean_switchboard():
    yield
    obs.disable()
    obs.reset()
    obs.FLIGHT.disarm()


def _event(etype, t, **fields):
    return {"t": t, "type": etype, **fields}


def _lifecycle_events(ctx=3):
    return [
        _event("transport.send", 1.0, flow="f", pn=0, size=1460, ctx=ctx),
        _event("link.drop", 1.1, link="a->b", kind="data", size=1460,
               reason="loss", ctx=ctx),
        _event("sidecar.gap_detect", 1.2, flow="f", ctx=ctx, latency=0.2),
    ]


def _read_jsonl(path):
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


class TestTrigger:
    def test_disarmed_trigger_is_a_noop(self, tmp_path):
        recorder = FlightRecorder()
        assert recorder.trigger("whatever") is None
        assert recorder.dumps == []

    def test_dump_layout(self, tmp_path):
        recorder = FlightRecorder()
        recorder.configure(str(tmp_path))
        path = recorder.trigger(
            "invariant-failure", scenario="blackout", time=2.5,
            detail="1 invariant violation(s)",
            events=_lifecycle_events(),
            extra_records=[{"kind": "invariant-violation", "text": "boom"}])
        records = _read_jsonl(path)
        header = records[0]
        assert header["kind"] == "flight-recorder"
        assert header["reason"] == "invariant-failure"
        assert header["scenario"] == "blackout"
        assert header["events"] == 3
        # The only span in the window is un-delivered, so it is elected.
        assert header["implicated_ctx"] == 3
        assert records[1]["type"] == "transport.send"
        assert {"kind": "invariant-violation", "text": "boom"} in records
        tree = records[-1]
        assert tree["kind"] == "span-tree" and tree["ctx"] == 3
        stages = [entry["stage"] for entry in tree["tree"]["stages"]]
        assert "gap_detected" in stages

    def test_explicit_implicated_ctx_wins(self, tmp_path):
        recorder = FlightRecorder()
        recorder.configure(str(tmp_path))
        events = _lifecycle_events(ctx=3) + [
            _event("transport.send", 1.0, flow="f", pn=1, size=1460, ctx=4),
            _event("transport.deliver", 1.3, flow="f", pn=1, ctx=4),
        ]
        path = recorder.trigger("wire-error", implicated_ctx=4,
                                events=events)
        header = _read_jsonl(path)[0]
        assert header["implicated_ctx"] == 4

    def test_window_keeps_only_last_n(self, tmp_path):
        recorder = FlightRecorder()
        recorder.configure(str(tmp_path), last_n=2)
        path = recorder.trigger("overflow", events=_lifecycle_events())
        records = _read_jsonl(path)
        assert records[0]["events"] == 2
        assert records[0]["dropped_before_window"] == 1
        assert records[1]["type"] == "link.drop"

    def test_filenames_are_sequence_numbered(self, tmp_path):
        recorder = FlightRecorder()
        recorder.configure(str(tmp_path))
        first = recorder.trigger("a", scenario="plan one", events=[])
        second = recorder.trigger("a", events=[])
        assert first.endswith("flight-001-a-plan_one.jsonl")
        assert second.endswith("flight-002-a.jsonl")
        assert recorder.dumps == [first, second]

    def test_configure_rejects_bad_last_n(self, tmp_path):
        with pytest.raises(ObservabilityError, match="last_n"):
            FlightRecorder().configure(str(tmp_path), last_n=0)

    def test_trigger_reads_live_ring_by_default(self, tmp_path):
        obs.enable()
        obs.TRACER.emit("transport.send", 1.0, flow="f", pn=0, size=1460,
                        ctx=11)
        obs.FLIGHT.configure(str(tmp_path))
        path = obs.FLIGHT.trigger("wire-error")
        records = _read_jsonl(path)
        assert records[0]["events"] == 1
        assert records[1]["ctx"] == 11

    def test_mid_transfer_dump_stops_at_the_trigger_time(self, tmp_path):
        """A link stamps each departure when it enqueues the packet, so
        mid-transfer the ring already holds records from the future; a
        dump shows only what has happened by the trigger."""
        from repro.netsim.core import Simulator
        from repro.netsim.node import Host
        from repro.netsim.topology import HopSpec, build_path
        from repro.transport.connection import (
            ReceiverConnection,
            SenderConnection,
        )

        obs.enable()
        sim = Simulator()
        server, client = Host(sim, "server"), Host(sim, "client")
        build_path(sim, [server, client],
                   [HopSpec(bandwidth_bps=10e6, delay_s=0.01)])
        receiver = ReceiverConnection(sim, client, "server", 200_000)
        SenderConnection(sim, server, "client", 200_000).start()
        sim.run(until=0.05)
        assert not receiver.complete
        ring = obs.TRACER.events
        pending = [event for event in ring if event.time > sim.now]
        assert {event.type for event in pending} == {"link.deliver"}

        obs.FLIGHT.configure(str(tmp_path), last_n=len(ring))
        records = _read_jsonl(obs.FLIGHT.trigger("mid-transfer",
                                                 time=sim.now))
        window = [record for record in records[1:] if "type" in record]
        assert records[0]["events"] == len(window) \
            == len(ring) - len(pending)
        assert max(record["t"] for record in window) <= sim.now


class TestChaosIntegration:
    def test_passing_plan_writes_no_dump(self, tmp_path):
        from repro.chaos.harness import run_plan

        obs.FLIGHT.configure(str(tmp_path))
        obs.enable()
        result = run_plan("blackout", seed=1, total_bytes=1460 * 200)
        assert result.ok
        assert obs.FLIGHT.dumps == []
