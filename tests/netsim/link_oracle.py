"""The two-event link: the differential oracle for ``repro.netsim.link``.

The runtime :class:`~repro.netsim.link.Link` computes each packet's
departure time at enqueue and schedules one event per packet, its
arrival.  This is the link it replaced, kept here -- outside ``src/`` --
as the reference ``tests/netsim/test_link_differential.py`` holds it to:
a reusable end-of-serialisation timer pops the head of a packet queue,
draws the loss decision as the packet leaves, and schedules the
delivery.  It takes the constructor arguments the differential varies
(no name, fault injector or argument checks) and fills the same
:class:`~repro.netsim.link.LinkStats`; delivery times, ``send()``
results, CE marks, queue depths and final statistics must agree exactly.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.netsim.core import Simulator
from repro.netsim.link import LinkStats
from repro.netsim.loss import LossModel, NoLoss
from repro.netsim.packet import Packet


class TwoEventLink:
    """One direction of a hop: a FIFO drained by a serialisation timer."""

    def __init__(self, sim: Simulator, bandwidth_bps: float, delay_s: float,
                 deliver: Callable[[Packet], None],
                 queue_packets: int = 256,
                 loss_model: LossModel | None = None,
                 ecn_threshold: int | None = None) -> None:
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.delay_s = delay_s
        self.deliver = deliver
        self.queue_packets = queue_packets
        self.loss_model = loss_model if loss_model is not None else NoLoss()
        self.ecn_threshold = ecn_threshold
        self.stats = LinkStats()
        #: Virtual time of every end of serialisation, lost packets too.
        self.departures: list[float] = []
        self._queue: deque[Packet] = deque()
        self._transmitting = False
        self._tx_timer = sim.timer(self._finish_transmission)

    def send(self, packet: Packet) -> bool:
        """Enqueue a packet; returns False if the drop-tail queue rejected it."""
        self.stats.offered += 1
        if len(self._queue) >= self.queue_packets:
            self.stats.dropped_queue += 1
            return False
        if (self.ecn_threshold is not None
                and len(self._queue) >= self.ecn_threshold
                and not packet.ecn_ce):
            packet.ecn_ce = True
            self.stats.ce_marked += 1
        self._queue.append(packet)
        if not self._transmitting:
            self._start_next_transmission()
        return True

    @property
    def queue_depth(self) -> int:
        """Packets waiting for (or in) serialization."""
        return len(self._queue)

    def _start_next_transmission(self) -> None:
        packet = self._queue[0]
        self._transmitting = True
        tx_time = packet.size_bytes * 8 / self.bandwidth_bps
        self.stats.busy_seconds += tx_time
        self._tx_timer.rearm(tx_time)

    def _finish_transmission(self) -> None:
        self.departures.append(self.sim.now)
        packet = self._queue.popleft()
        if self.loss_model.should_drop(packet):
            self.stats.dropped_loss += 1
        else:
            self.stats.delivered += 1
            self.stats.bytes_delivered += packet.size_bytes
            self.sim.schedule(self.delay_s, self.deliver, packet)
        if self._queue:
            self._start_next_transmission()
        else:
            self._transmitting = False
