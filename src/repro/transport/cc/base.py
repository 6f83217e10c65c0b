"""Congestion-controller interface.

The sidecar's congestion-control division (paper, Section 2.1) runs a
*separate* controller per path segment: the proxy paces its downstream
segment from client quACKs while the server controls its segment from
proxy quACKs.  Controllers therefore consume abstract events (bytes
acked / congestion detected) rather than transport internals, so the same
implementations drive the end-to-end transport, the proxy pacer, and the
quACK-fed server window.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.transport.frames import DEFAULT_MSS, HEADER_BYTES

#: Datagram size the window arithmetic assumes.
DEFAULT_DATAGRAM = DEFAULT_MSS + HEADER_BYTES

#: RFC 9002 initial window: min(10 * max_datagram, ...) ~ 10 packets.
INITIAL_WINDOW_PACKETS = 10

#: Floor for the congestion window.
MIN_WINDOW_PACKETS = 2


class CongestionController(ABC):
    """Window-based congestion control over byte counts."""

    def __init__(self) -> None:
        self.datagram_bytes = DEFAULT_DATAGRAM
        self.cwnd = INITIAL_WINDOW_PACKETS * DEFAULT_DATAGRAM
        self.ssthresh = float("inf")
        self.congestion_events = 0
        self._recovery_start: float | None = None

    # -- queries ---------------------------------------------------------

    def can_send(self, bytes_in_flight: int, size: int) -> bool:
        return bytes_in_flight + size <= self.cwnd

    @property
    def in_slow_start(self) -> bool:
        return self.cwnd < self.ssthresh

    @property
    def cwnd_packets(self) -> float:
        return self.cwnd / self.datagram_bytes

    def in_recovery(self, sent_time: float) -> bool:
        """Was this packet sent before the current recovery epoch began?"""
        return (self._recovery_start is not None
                and sent_time <= self._recovery_start)

    # -- events ------------------------------------------------------------

    def on_packet_sent(self, size: int, now: float) -> None:
        """Default: nothing; rate-based controllers may override."""

    @abstractmethod
    def on_ack(self, acked_bytes: int, rtt_s: float, now: float) -> None:
        """``acked_bytes`` newly confirmed delivered; grow the window."""

    def on_congestion_event(self, sent_time: float, now: float) -> None:
        """A loss (or ECN-CE) for a packet sent at ``sent_time``.

        At most one window reduction per round trip: events inside the
        current recovery epoch are ignored (RFC 9002 Section 7.3.1).
        """
        if self.in_recovery(sent_time):
            return
        self._recovery_start = now
        self.congestion_events += 1
        self._reduce_window(now)

    @abstractmethod
    def _reduce_window(self, now: float) -> None:
        """Apply the controller's multiplicative decrease."""

    def _floor(self) -> int:
        return MIN_WINDOW_PACKETS * self.datagram_bytes
