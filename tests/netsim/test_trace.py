"""Tests for the flow monitor (repro.netsim.trace)."""

import pytest

from repro.netsim.trace import FlowMonitor


class TestFlowMonitor:
    def test_goodput_average(self):
        m = FlowMonitor()
        m.record_delivery(1000, 1.0)
        m.record_delivery(1000, 2.0)
        assert m.total_bytes == 2000
        assert m.goodput_bps() == pytest.approx(2000 * 8 / 2.0)

    def test_goodput_with_horizon(self):
        m = FlowMonitor()
        m.record_delivery(1000, 1.0)
        m.record_delivery(9000, 10.0)
        assert m.goodput_bps(until=5.0) == pytest.approx(1000 * 8 / 5.0)

    def test_bytes_delivered_by(self):
        m = FlowMonitor()
        m.record_delivery(500, 1.0)
        m.record_delivery(500, 3.0)
        assert m.bytes_delivered_by(0.5) == 0
        assert m.bytes_delivered_by(1.0) == 500
        assert m.bytes_delivered_by(2.0) == 500
        assert m.bytes_delivered_by(10.0) == 1000

    def test_empty_monitor(self):
        m = FlowMonitor()
        assert m.goodput_bps() == 0.0
        assert m.duration == 0.0
        assert m.first_delivery is None

    def test_first_last_completion(self):
        m = FlowMonitor()
        m.record_delivery(1, 0.5)
        m.record_delivery(1, 2.5)
        m.record_completion(2.6)
        assert m.first_delivery == 0.5
        assert m.last_delivery == 2.5
        assert m.completed_at == 2.6
