"""Receiver-side ACK generation: tracking and frequency policy.

:class:`AckTracker` records received packet numbers and produces the
ranges for :class:`~repro.transport.frames.AckFrame`.

:class:`AckFrequencyPolicy` decides *when* to ACK: after every
``ack_every``-th ack-eliciting packet, or when the delayed-ACK timer
(``max_delay_s``) expires, whichever comes first -- the knob the QUIC
ACK-frequency extension exposes and the ACK-reduction sidecar protocol
turns down (paper, Section 2.2).
"""

from __future__ import annotations

from repro.transport.ranges import RangeSet

#: QUIC's default: ACK every other ack-eliciting packet.
DEFAULT_ACK_EVERY = 2

#: QUIC's default max_ack_delay.
DEFAULT_MAX_ACK_DELAY = 0.025

#: ACK ranges an ACK frame carries, most recent first.
MAX_ACK_RANGES = 32


class AckTracker:
    """Which packet numbers have arrived, and what changed since last ACK."""

    def __init__(self) -> None:
        self.received = RangeSet()
        #: Largest packet number received (None before the first).
        self.largest: int | None = None
        self._new_since_last_ack = 0

    def on_packet(self, packet_number: int) -> bool:
        """Record an arrival; returns False for duplicates."""
        if not self.received.add_range(packet_number, packet_number):
            return False
        if self.largest is None or packet_number > self.largest:
            self.largest = packet_number
        self._new_since_last_ack += 1
        return True

    @property
    def pending_ack_count(self) -> int:
        """Ack-eliciting packets received since the last ACK was sent."""
        return self._new_since_last_ack

    def ack_ranges(self) -> tuple[tuple[int, int], ...]:
        """Most recent ranges first, truncated to :data:`MAX_ACK_RANGES`."""
        return self.received.highest(MAX_ACK_RANGES)

    def mark_acked(self) -> None:
        """Reset the since-last-ACK counter (an ACK has been emitted)."""
        self._new_since_last_ack = 0


class AckFrequencyPolicy:
    """When should the receiver emit an ACK?"""

    def __init__(self) -> None:
        self.update(DEFAULT_ACK_EVERY, DEFAULT_MAX_ACK_DELAY)

    def update(self, ack_every: int, max_delay_s: float) -> None:
        """Apply an ACK_FREQUENCY frame (or local reconfiguration)."""
        if ack_every < 1:
            raise ValueError(f"ack_every must be >= 1, got {ack_every}")
        if max_delay_s < 0:
            raise ValueError(f"max_delay_s must be >= 0, got {max_delay_s}")
        self.ack_every = ack_every
        self.max_delay_s = max_delay_s

    def should_ack_immediately(self, pending: int,
                               out_of_order: bool = False) -> bool:
        """ACK now?  Out-of-order arrivals always ACK (loss signal)."""
        return out_of_order or pending >= self.ack_every

    def __repr__(self) -> str:
        return (f"AckFrequencyPolicy(every={self.ack_every}, "
                f"max_delay={self.max_delay_s * 1e3:.0f}ms)")
