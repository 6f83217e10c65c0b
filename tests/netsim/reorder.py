"""Reordering links (extension X3).

Section 3.3 of the paper: "Packets may also be re-ordered, causing
missing packets to later be received. Thus discarding missing packets
can be problematic."  The base :class:`~repro.netsim.link.Link` is FIFO
end-to-end (serialization + fixed propagation), so nothing in the core
scenarios reorders; this module adds a link with per-packet propagation
jitter, under which a packet can overtake its predecessor on the wire.

With a :class:`JitterLink` in the path, the
:class:`~repro.sidecar.consumer.QuackConsumer` grace knob becomes
observable: grace=1 declares reordered packets lost, desynchronizing the
cumulative power sums when they arrive after all (decode failures from
then on); a grace of a few quACKs rides out the jitter.  No scenario
wires a jittery link in, so the model lives with the tests that use it
(``tests/netsim/test_reorder.py``).
"""

from __future__ import annotations

import random
from typing import Callable

from repro.netsim.core import Simulator
from repro.netsim.link import Link
from repro.netsim.loss import LossModel
from repro.netsim.packet import Packet


class JitterLink(Link):
    """A link whose propagation delay varies uniformly per packet.

    Each packet propagates for ``delay_s + U(0, jitter_s)``.  Two packets
    serialized back-to-back (gap = serialization time) swap order when the
    first draws more than ``gap`` extra jitter than the second -- so
    meaningful reordering needs ``jitter_s`` on the order of the packet
    serialization time or larger.
    """

    def __init__(self, sim: Simulator, bandwidth_bps: float, delay_s: float,
                 deliver: Callable[[Packet], None],
                 jitter_s: float,
                 queue_packets: int = 256,
                 loss_model: LossModel | None = None,
                 rng: random.Random | None = None,
                 name: str = "jitter-link") -> None:
        super().__init__(sim, bandwidth_bps, delay_s, deliver,
                         queue_packets=queue_packets, loss_model=loss_model,
                         name=name)
        if jitter_s < 0:
            raise ValueError(f"jitter must be >= 0, got {jitter_s}")
        self.jitter_s = jitter_s
        self.rng = rng if rng is not None else random.Random(0x71772)

    def send(self, packet: Packet) -> bool:
        """Send with this packet's own propagation delay (one draw per
        packet offered, dropped ones included): the base link reads
        ``delay_s`` when it schedules the arrival."""
        base = self.delay_s
        self.delay_s = base + self.rng.uniform(0.0, self.jitter_s)
        try:
            return super().send(packet)
        finally:
            self.delay_s = base

    def __repr__(self) -> str:
        return (f"JitterLink({self.name}, {self.bandwidth_bps / 1e6:.1f} Mbps, "
                f"{self.delay_s * 1e3:.1f}+U(0,{self.jitter_s * 1e3:.1f}) ms)")

