"""Tests for congestion controllers (repro.transport.cc)."""

import pytest

from repro.transport.cc.base import (
    DEFAULT_DATAGRAM,
    INITIAL_WINDOW_PACKETS,
    MIN_WINDOW_PACKETS,
)
from repro.transport.cc.cubic import Cubic
from repro.transport.cc.fixed import AimdRate, FixedWindow
from repro.transport.cc.newreno import NewReno

MSS = DEFAULT_DATAGRAM


class TestNewReno:
    def test_initial_window(self):
        cc = NewReno()
        assert cc.cwnd == INITIAL_WINDOW_PACKETS * MSS
        assert cc.in_slow_start

    def test_slow_start_doubles_per_window(self):
        cc = NewReno()
        start = cc.cwnd
        cc.on_ack(start, 0.05, 1.0)  # a full window acked
        assert cc.cwnd == 2 * start

    def test_congestion_halves_and_exits_slow_start(self):
        cc = NewReno()
        before = cc.cwnd
        cc.on_congestion_event(sent_time=0.5, now=1.0)
        assert cc.cwnd == before // 2
        assert cc.ssthresh == cc.cwnd
        assert not cc.in_slow_start
        assert cc.congestion_events == 1

    def test_congestion_avoidance_linear(self):
        cc = NewReno()
        cc.on_congestion_event(0.5, 1.0)
        w = cc.cwnd
        # One window's worth of acks grows cwnd by ~1 MSS.
        acked = 0
        while acked < w:
            cc.on_ack(MSS, 0.05, 2.0)
            acked += MSS
        assert w + MSS <= cc.cwnd <= w + 2 * MSS

    def test_once_per_round_trip_reduction(self):
        cc = NewReno()
        cc.on_congestion_event(sent_time=1.0, now=2.0)
        after_first = cc.cwnd
        # A loss for a packet sent *before* recovery began: ignored.
        cc.on_congestion_event(sent_time=1.5, now=2.1)
        assert cc.cwnd == after_first
        assert cc.congestion_events == 1
        # A loss for a packet sent after recovery began: new event.
        cc.on_congestion_event(sent_time=2.05, now=2.2)
        assert cc.cwnd < after_first
        assert cc.congestion_events == 2

    def test_window_floor(self):
        cc = NewReno()
        for i in range(20):
            cc.on_congestion_event(sent_time=float(i) + 0.5, now=float(i) + 1)
        assert cc.cwnd >= MIN_WINDOW_PACKETS * MSS

    def test_can_send(self):
        cc = FixedWindow(2)
        assert cc.can_send(0, MSS)
        assert cc.can_send(MSS, MSS)
        assert not cc.can_send(2 * MSS, MSS)

    def test_slow_start_clamps_to_ssthresh(self):
        cc = NewReno()
        cc.ssthresh = cc.cwnd + MSS // 2
        cc.on_ack(5 * MSS, 0.05, 1.0)
        assert cc.cwnd == int(cc.ssthresh)


class TestCubic:
    def test_slow_start_grows(self):
        cc = Cubic()
        start = cc.cwnd
        cc.on_ack(start, 0.05, 1.0)
        assert cc.cwnd == 2 * start

    def test_reduction_uses_beta(self):
        cc = Cubic()
        before = cc.cwnd
        cc.on_congestion_event(0.5, 1.0)
        assert cc.cwnd == pytest.approx(before * 0.7, abs=MSS)
        assert not cc.in_slow_start

    def test_recovers_toward_w_max(self):
        cc = Cubic()
        # Grow a bit, then lose.
        cc.on_ack(cc.cwnd, 0.05, 0.5)
        w_before_loss = cc.cwnd_packets
        cc.on_congestion_event(0.4, 1.0)
        # Ack steadily for several virtual seconds: the cubic curve should
        # approach/exceed the pre-loss window.
        t = 1.0
        for _ in range(2000):
            t += 0.01
            cc.on_ack(MSS, 0.05, t)
        assert cc.cwnd_packets >= 0.9 * w_before_loss

    def test_fast_convergence_lowers_w_max(self):
        cc = Cubic()
        cc.on_congestion_event(0.5, 1.0)
        first_w_max = cc._w_max
        cc.on_congestion_event(1.5, 2.0)
        assert cc._w_max < first_w_max

    def test_window_floor(self):
        cc = Cubic()
        for i in range(30):
            cc.on_congestion_event(float(i) + 0.5, float(i) + 1)
        assert cc.cwnd >= MIN_WINDOW_PACKETS * MSS


class TestFixedWindow:
    def test_ignores_everything(self):
        cc = FixedWindow(8)
        w = cc.cwnd
        cc.on_ack(10 * MSS, 0.05, 1.0)
        cc.on_congestion_event(0.5, 1.0)
        assert cc.cwnd == w
        assert cc.congestion_events == 1  # counted, but window unchanged

    def test_never_in_slow_start(self):
        assert not FixedWindow(8).in_slow_start

    def test_validation(self):
        with pytest.raises(ValueError):
            FixedWindow(0)


class TestAimdRate:
    def test_pacing_rate(self):
        cc = AimdRate()
        rate = cc.pacing_rate_bps(0.1)
        assert rate == pytest.approx(cc.cwnd * 8 / 0.1)

    def test_reduction(self):
        cc = AimdRate()
        before = cc.cwnd
        cc.on_congestion_event(0.5, 1.0)
        assert cc.cwnd == before // 2

    def test_growth_mirrors_newreno(self):
        aimd = AimdRate()
        reno = NewReno()
        for controller in (aimd, reno):
            controller.on_congestion_event(0.5, 1.0)
            for _ in range(30):
                controller.on_ack(MSS, 0.05, 2.0)
        assert aimd.cwnd == reno.cwnd
