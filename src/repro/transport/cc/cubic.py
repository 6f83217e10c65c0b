"""CUBIC congestion control (RFC 9438, simplified).

The window in congestion avoidance follows

    W_cubic(t) = C * (t - K)**3 + W_max        [in datagrams]
    K = cbrt(W_max * (1 - beta) / C)

where ``t`` is time since the last reduction, ``W_max`` the window at that
reduction, ``beta = 0.7`` the decrease factor, and ``C = 0.4``.  The
Reno-friendly region and fast-convergence heuristic are included; the
delayed-ack adjustments are not (the simulator's ACK cadence is explicit).
"""

from __future__ import annotations

from repro.transport.cc.base import CongestionController

BETA = 0.7
C_SCALE = 0.4  # window units per second**3, per RFC 9438


class Cubic(CongestionController):
    def __init__(self) -> None:
        super().__init__()
        self._w_max = 0.0          # datagrams
        self._epoch_start: float | None = None
        self._reno_cwnd = 0.0      # datagrams, the TCP-friendly estimate
        self._acked_since_epoch = 0.0

    def on_ack(self, acked_bytes: int, rtt_s: float, now: float) -> None:
        if self.in_slow_start:
            self.cwnd += acked_bytes
            if self.cwnd >= self.ssthresh:
                self.cwnd = int(self.ssthresh)
            return
        if self._epoch_start is None:
            self._epoch_start = now
            self._w_max = max(self._w_max, self.cwnd_packets)
            self._reno_cwnd = self.cwnd_packets
        t = now - self._epoch_start
        k = ((self._w_max * (1 - BETA)) / C_SCALE) ** (1 / 3)
        w_cubic = C_SCALE * (t - k) ** 3 + self._w_max
        # Reno-friendly region: emulate AIMD growth.
        self._acked_since_epoch += acked_bytes / self.datagram_bytes
        rtt = max(rtt_s, 1e-4)
        self._reno_cwnd += (3 * (1 - BETA) / (1 + BETA)) \
            * (acked_bytes / max(self.cwnd, 1))
        target = max(w_cubic, self._reno_cwnd)
        current = self.cwnd_packets
        if target > current:
            # Approach the cubic target over roughly one RTT.
            increment = (target - current) / max(current, 1.0)
            self.cwnd += int(increment * self.datagram_bytes)
        else:
            # Minimal growth to stay responsive in the concave plateau.
            self.cwnd += int(self.datagram_bytes
                             * (acked_bytes / (100.0 * max(self.cwnd, 1))))

    def _reduce_window(self, now: float) -> None:
        current = self.cwnd_packets
        if current < self._w_max:
            # Fast convergence: release bandwidth faster on consecutive losses.
            self._w_max = current * (1 + BETA) / 2
        else:
            self._w_max = current
        self.ssthresh = max(int(self.cwnd * BETA), self._floor())
        self.cwnd = int(max(self.cwnd * BETA, self._floor()))
        self._epoch_start = None

    def __repr__(self) -> str:
        return f"Cubic(cwnd={self.cwnd_packets:.1f} pkts, w_max={self._w_max:.1f})"
