"""Sidecar protocol #3: in-network (PEP-to-PEP) retransmission (Section 2.3).

Fig. 4: two proxies bracket a lossy path segment.  The receiver-side
proxy quACKs the packets that made it across; the sender-side proxy
"does not need to read or modify packet contents, just hold packets in a
buffer in case they need to be retransmitted".  The quACK cadence is
loss-adaptive: "The sender-side proxy determines the loss ratio, and can
configure the communication frequency accordingly" -- sent to the peer as
a sidecar :class:`~repro.sidecar.protocol.ConfigMessage`.

End hosts play no role (Table 1: server role None, client role None); the
benefit materializes "when the RTT between the two routers is
significantly smaller than the end-to-end RTT" because local repair beats
an end-to-end retransmission by that RTT ratio.

:func:`run_retransmission` (experiment E9) runs a transfer across
server -- p1 -- p2 -- client where p1--p2 is the short lossy hop, with the
retransmitter on/off, and reports completion time, goodput, and how many
repairs were local vs end-to-end.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.netsim.core import Simulator
from repro.sidecar.cc_division import make_loss_model
from repro import obs
from repro.netsim.node import Host, Router
from repro.netsim.packet import Packet, PacketKind, reset_packet_uids
from repro.netsim.topology import HopSpec, build_path
from repro.sidecar.agents import (
    DEFAULT_THRESHOLD,
    ConsumerEndpoint,
    ConsumerEndpointStats,
    ProxyEmitterTap,
)
from repro.sidecar.consumer import QuackFeedback
from repro.sidecar.frequency import AdaptiveFrequency, retransmission_cadence
from repro.sidecar.protocol import ConfigMessage
from repro.transport.connection import (
    ReceiverConnection,
    SenderConnection,
    run_transfer,
)


#: The retuned cadence aims at this many losses per quACK.
TARGET_MISSING = 10
#: The proxies' session reset (:mod:`repro.sidecar.reset`): after this
#: many undecodable quACKs in a row, settling this long.
RESET_AFTER_FAILURES = 3
SETTLE_TIME_S = 0.1


@dataclass
class RetxProxyStats(ConsumerEndpointStats):
    logged: int = field(default=0, init=False)
    retransmitted: int = field(default=0, init=False)
    confirmed: int = field(default=0, init=False)
    evicted: int = field(default=0, init=False)
    retunes_sent: int = field(default=0, init=False)


class SenderSideRetxProxy(ConsumerEndpoint):
    """The buffering/retransmitting proxy (right-hand side of Fig. 4):
    the receiving role at an in-path observer.  The log is what crosses
    its tap, what the news reports lost is re-logged and re-emitted, and
    a reset pauses nothing (:mod:`repro.sidecar.reset` has why).
    """

    def __init__(self, sim: Simulator, router: Router, peer_proxy: str,
                 client: str, flow_id: str,
                 threshold: int = DEFAULT_THRESHOLD,
                 max_buffer: int = 4096,
                 retune_period_s: float = 0.25) -> None:
        super().__init__(sim, router, flow_id, RetxProxyStats(), threshold,
                         reset_after_failures=RESET_AFTER_FAILURES,
                         settle_time=SETTLE_TIME_S, peer=peer_proxy)
        self.router = router
        self.client = client
        self.max_buffer = max_buffer
        self._window_received = 0
        self._window_lost = 0
        router.add_tap(self._tap)
        self._retune_timer = sim.timer(self._retune, retune_period_s)
        self._retune_timer.rearm(retune_period_s)

    def _tap(self, packet: Packet) -> None:
        if packet.dst == self.router.name:
            if packet.kind is PacketKind.QUACK:
                self._on_quack_packet(packet)
            return
        if (packet.kind is PacketKind.DATA and packet.dst == self.client
                and packet.flow_id == self.flow_id
                and packet.identifier is not None):
            self._log(packet)

    def _log(self, packet: Packet) -> None:
        if self.consumer.outstanding >= self.max_buffer:
            # Write off the oldest buffered packet to bound memory.
            if self.consumer.evict_oldest() is not None:
                self.stats.evicted += 1
        self.consumer.record_send(packet.identifier, packet, self.sim.now)
        self.stats.logged += 1

    def _apply(self, feedback: QuackFeedback, now: float) -> None:
        self.stats.confirmed += len(feedback.received)
        self._window_received += len(feedback.received)
        self._window_lost += len(feedback.lost)
        for lost_packet in feedback.lost:
            # Retransmit across the lossy segment; same packet, same
            # identifier -- re-logged so the next quACK covers the repair.
            self.consumer.record_send(lost_packet.identifier, lost_packet,
                                      now)
            self.stats.retransmitted += 1
            if obs.TRACER.enabled:
                latency = now - lost_packet.created_at
                # The decode just declared this specific buffered packet
                # missing: the per-packet gap-detection lifecycle stage.
                obs.TRACER.emit("sidecar.gap_detect", now,
                                flow=self.flow_id,
                                ctx=lost_packet.trace_ctx,
                                latency=latency)
                # Local repair re-emits the *same* datagram, so the span
                # keeps its context id across the retransmission.
                obs.TRACER.emit("sidecar.retransmit", now,
                                flow=self.flow_id, cause="quack",
                                latency=latency,
                                ctx=lost_packet.trace_ctx)
            self.router.emit(lost_packet)

    def observed_loss_ratio(self) -> float:
        total = self._window_received + self._window_lost
        return self._window_lost / total if total else 0.0

    def _retune(self, period: float) -> None:
        total = self._window_received + self._window_lost
        if total >= 50:
            every = retransmission_cadence(self.observed_loss_ratio(),
                                           TARGET_MISSING)
            self._send_control(ConfigMessage(flow_id=self.flow_id,
                                             every_n=every))
            self.stats.retunes_sent += 1
            self._window_received = 0
            self._window_lost = 0
        self._retune_timer.rearm(period)


@dataclass
class RetransmissionResult:
    """Outcome of one E9 run."""

    innet_retx_enabled: bool
    completed: bool
    completion_time: float | None
    goodput_bps: float
    server_packets_sent: int
    server_retransmissions: int
    server_congestion_events: int
    proxy_retransmissions: int
    proxy_quacks: int
    proxy_decode_failures: int
    client_duplicates: int


def run_retransmission(total_bytes: int = 1_500_000,
                       edge_mbps: float = 100.0,
                       server_p1_delay: float = 0.04,
                       lossy_mbps: float = 50.0,
                       lossy_delay: float = 0.002,
                       p2_client_delay: float = 0.002,
                       loss_rate: float = 0.05,
                       innet_retx: bool = True,
                       reorder_threshold: int = 3,
                       seed: int = 1,
                       threshold: int = DEFAULT_THRESHOLD,
                       loss_process: str = "random",
                       max_sim_seconds: float = 120.0) -> RetransmissionResult:
    """E9: transfer across a short lossy middle hop, +/- local repair.

    ``reorder_threshold`` is the server's loss-detection tolerance: 3 is
    the unchanged QUIC host of the paper; larger values model a host that
    waits long enough for local repair to win (the E9 ablation).

    Pure in its arguments (all state, including packet uids, is created
    per call) so :mod:`repro.sweep` can shard runs across processes.
    """
    reset_packet_uids()
    sim = Simulator()
    server = Host(sim, "server")
    p1 = Router(sim, "p1")
    p2 = Router(sim, "p2")
    client = Host(sim, "client")
    rng = random.Random(seed)
    build_path(sim, [server, p1, p2, client], [
        HopSpec(bandwidth_bps=edge_mbps * 1e6, delay_s=server_p1_delay),
        HopSpec(bandwidth_bps=lossy_mbps * 1e6, delay_s=lossy_delay,
                loss_up=make_loss_model(loss_rate, loss_process,
                                        random.Random(rng.random()))),
        HopSpec(bandwidth_bps=edge_mbps * 1e6, delay_s=p2_client_delay),
    ])

    flow_id = "flow0"
    receiver = ReceiverConnection(sim, client, "server", total_bytes,
                                  flow_id=flow_id)
    sender = SenderConnection(sim, server, "client", total_bytes,
                              flow_id=flow_id,
                              reorder_threshold=reorder_threshold)

    sender_proxy: SenderSideRetxProxy | None = None
    receiver_proxy: ProxyEmitterTap | None = None
    if innet_retx:
        sender_proxy = SenderSideRetxProxy(sim, p1, peer_proxy="p2",
                                           client="client", flow_id=flow_id,
                                           threshold=threshold)
        # The quACKing proxy (left-hand side of Fig. 4), retuned by p1.
        receiver_proxy = ProxyEmitterTap(
            sim, p2, server="p1", client="client", flow_id=flow_id,
            policy=AdaptiveFrequency(initial_every=8), threshold=threshold)

    run_transfer(sim, sender, receiver, slice_s=0.5,
                 deadline_s=max_sim_seconds)

    completion = receiver.completed_at
    return RetransmissionResult(
        innet_retx_enabled=innet_retx,
        completed=receiver.complete,
        completion_time=completion,
        goodput_bps=receiver.monitor.goodput_bps(completion),
        server_packets_sent=sender.stats.packets_sent,
        server_retransmissions=sender.stats.retransmitted_packets,
        server_congestion_events=sender.cc.congestion_events,
        proxy_retransmissions=(sender_proxy.stats.retransmitted
                               if sender_proxy else 0),
        proxy_quacks=receiver_proxy.quacks_sent if receiver_proxy else 0,
        proxy_decode_failures=(sender_proxy.stats.decode_failures
                               if sender_proxy else 0),
        client_duplicates=receiver.stats.duplicate_packets,
    )


def format_result(result: RetransmissionResult) -> str:
    """The ``repro experiment retransmission`` report."""
    return "\n".join([
        f"in-network retransmission: {result.innet_retx_enabled}",
        f"completed: {result.completed} in {result.completion_time:.3f} s"
        if result.completed else "completed: False",
        f"server retransmissions: {result.server_retransmissions}, "
        f"proxy retransmissions: {result.proxy_retransmissions}",
        f"congestion events: {result.server_congestion_events}",
    ])
