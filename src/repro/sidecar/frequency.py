"""QuACK communication-frequency policies (paper, Sections 3.2 and 4.3).

"The receiver may configure ... the communication frequency of quACKs",
and Section 4.3 prescribes one policy per sidecar protocol:

* congestion-control division: "we quACK only once per RTT" --
  :class:`IntervalFrequency`;
* ACK reduction: "the receiver could quACK e.g. every n = 32 packets,
  similar to TCP which ACKs every other packet" --
  :class:`PacketCountFrequency`;
* in-network retransmission: "should change dynamically based on the loss
  ratio ... could target a constant t = 20 missing packets per quACK" --
  :class:`AdaptiveFrequency`, retuned by :func:`retransmission_cadence`.

A policy answers two questions: *should a quACK go out now that a packet
arrived?* (:meth:`FrequencyPolicy.on_packet`) and *how long until a
timer-driven emission?* (:meth:`FrequencyPolicy.interval_hint`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod


class FrequencyPolicy(ABC):
    """Decides when a sidecar emits quACKs."""

    @abstractmethod
    def on_packet(self, packets_since_emit: int, now: float,
                  last_emit: float) -> bool:
        """Emit right after this packet arrival?"""

    def interval_hint(self) -> float | None:
        """Periodic emission interval, or None for purely packet-driven."""
        return None


class IntervalFrequency(FrequencyPolicy):
    """Emit once per fixed interval (e.g. once per RTT, Section 4.3)."""

    def __init__(self, interval_s: float) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval must be positive, got {interval_s}")
        self.interval_s = interval_s

    def on_packet(self, packets_since_emit: int, now: float,
                  last_emit: float) -> bool:
        return now - last_emit >= self.interval_s

    def interval_hint(self) -> float | None:
        return self.interval_s

    def __repr__(self) -> str:
        return f"IntervalFrequency({self.interval_s * 1e3:.1f} ms)"


class PacketCountFrequency(FrequencyPolicy):
    """Emit every ``every_n`` observed packets (ACK-reduction cadence)."""

    def __init__(self, every_n: int) -> None:
        if every_n < 1:
            raise ValueError(f"every_n must be >= 1, got {every_n}")
        self.every_n = every_n

    def on_packet(self, packets_since_emit: int, now: float,
                  last_emit: float) -> bool:
        return packets_since_emit >= self.every_n

    def __repr__(self) -> str:
        return f"{type(self).__name__}(every {self.every_n} packets)"


#: Bounds of a loss-adaptive cadence, in packets per quACK.
MIN_EVERY = 2
MAX_EVERY = 512


def retransmission_cadence(loss_ratio: float, target_missing: int) -> int:
    """Packets per quACK so ~``target_missing`` losses accrue per quACK.

    "The sender who configures this frequency could target a constant
    t = 20 missing packets per quACK.  If the link is relatively stable,
    the sender-side proxy could decrease the frequency" (Section 4.3):
    the proxy's rule, and what ``repro sizing retransmission`` prints.
    """
    if not 0.0 <= loss_ratio <= 1.0:
        raise ValueError(f"loss ratio must be in [0, 1], got {loss_ratio}")
    if loss_ratio == 0.0:
        return MAX_EVERY
    return max(MIN_EVERY, min(MAX_EVERY, int(target_missing / loss_ratio)))


class AdaptiveFrequency(PacketCountFrequency):
    """Loss-adaptive cadence for in-network retransmission (Section 4.3).

    Starts from an initial packet count and accepts retuning from the
    *sender-side* proxy, which "determines the loss ratio, and can
    configure the communication frequency accordingly" (Section 2.3,
    :func:`retransmission_cadence`), within ``[min_every, max_every]``.
    """

    def __init__(self, initial_every: int = 16, min_every: int = MIN_EVERY,
                 max_every: int = MAX_EVERY) -> None:
        if not 1 <= min_every <= initial_every <= max_every:
            raise ValueError(
                f"need 1 <= min_every <= initial_every <= max_every, got "
                f"{min_every}, {initial_every}, {max_every}"
            )
        super().__init__(initial_every)
        self.min_every = min_every
        self.max_every = max_every

    def configure(self, every_n: int) -> None:
        """Adopt the cadence a peer asked for, within this policy's bounds."""
        self.every_n = max(self.min_every, min(self.max_every, every_n))
