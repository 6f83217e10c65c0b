"""NewReno congestion control (RFC 9002, Appendix B flavor)."""

from __future__ import annotations

from repro.transport.cc.base import CongestionController

#: Multiplicative decrease factor on congestion.
LOSS_REDUCTION = 0.5


class NewReno(CongestionController):
    """Slow start + AIMD congestion avoidance."""

    def __init__(self) -> None:
        super().__init__()
        self._avoidance_acc = 0  # bytes acked since the last +1 MSS step

    def on_ack(self, acked_bytes: int, rtt_s: float, now: float) -> None:
        if self.in_slow_start:
            self.cwnd += acked_bytes
            if self.cwnd >= self.ssthresh:
                self.cwnd = int(self.ssthresh)
            return
        # Congestion avoidance: +1 datagram per cwnd's worth of acked bytes.
        self._avoidance_acc += acked_bytes
        while self._avoidance_acc >= self.cwnd:
            self._avoidance_acc -= self.cwnd
            self.cwnd += self.datagram_bytes

    def _reduce_window(self, now: float) -> None:
        self.ssthresh = max(int(self.cwnd * LOSS_REDUCTION), self._floor())
        self.cwnd = int(self.ssthresh)
        self._avoidance_acc = 0

    def __repr__(self) -> str:
        return (f"NewReno(cwnd={self.cwnd_packets:.1f} pkts, "
                f"ssthresh={'inf' if self.ssthresh == float('inf') else int(self.ssthresh)})")
