"""Degenerate controllers for tests and pacing baselines."""

from __future__ import annotations

from repro.transport.cc.base import DEFAULT_DATAGRAM, CongestionController


class FixedWindow(CongestionController):
    """A constant congestion window; ignores acks and losses.

    Useful to isolate other mechanisms (loss detection, sidecar logic)
    from congestion dynamics in unit tests.
    """

    def __init__(self, window_packets: int) -> None:
        super().__init__()
        if window_packets < 1:
            raise ValueError(f"window must be >= 1 packet, got {window_packets}")
        self.cwnd = window_packets * DEFAULT_DATAGRAM
        self.ssthresh = self.cwnd  # never in slow start

    def on_ack(self, acked_bytes: int, rtt_s: float, now: float) -> None:
        pass

    def _reduce_window(self, now: float) -> None:
        pass

    def __repr__(self) -> str:
        return f"FixedWindow({self.cwnd_packets:.0f} pkts)"


class AimdRate(CongestionController):
    """A pragmatic AIMD used by the proxy pacer in CC division.

    Identical dynamics to NewReno but exposes the window as a *pacing
    rate* given an RTT estimate, which is how the proxy drains its buffer
    of unforwarded packets "at a slower rate if it detects a large number
    of packets have yet to be received" (Section 2.1).
    """

    def __init__(self) -> None:
        super().__init__()
        self._avoidance_acc = 0

    def on_ack(self, acked_bytes: int, rtt_s: float, now: float) -> None:
        if self.in_slow_start:
            self.cwnd += acked_bytes
            if self.cwnd >= self.ssthresh:
                self.cwnd = int(self.ssthresh)
            return
        self._avoidance_acc += acked_bytes
        while self._avoidance_acc >= self.cwnd:
            self._avoidance_acc -= self.cwnd
            self.cwnd += self.datagram_bytes

    def _reduce_window(self, now: float) -> None:
        self.ssthresh = max(int(self.cwnd * 0.5), self._floor())
        self.cwnd = int(self.ssthresh)
        self._avoidance_acc = 0

    def pacing_rate_bps(self, rtt_s: float) -> float:
        """cwnd per RTT, as bits per second."""
        return self.cwnd * 8 / max(rtt_s, 1e-4)

    def __repr__(self) -> str:
        return f"AimdRate(cwnd={self.cwnd_packets:.1f} pkts)"
