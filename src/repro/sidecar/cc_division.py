"""Sidecar protocol #1: congestion-control division (paper, Section 2.1).

Fig. 1(b): the client's sidecar sends quACKs to the proxy, and the proxy's
sidecar separately sends quACKs to the server, splitting congestion
control per segment *without* splitting the (E2E-encrypted) connection:

* the **proxy** takes custody of DATA packets heading to the client and
  drains them under its own congestion window, grown/shrunk from the
  client's quACKs -- "the proxy can drain a buffer of unforwarded QUIC
  packets at a slower rate if it detects a large number of packets have
  yet to be received";
* the **server** moves its congestion window on the proxy's quACKs and
  stops reacting to end-to-end signals for cwnd purposes ("The server no
  longer needs to rely on end-to-end ACKs to make decisions to increase
  the cwnd, though these ACKs still govern the retransmission logic") --
  :attr:`~repro.transport.connection.SenderConnection.cc_from_acks` off.

Design note (documented in DESIGN.md): the proxy quACKs packets to the
server when it *forwards* them rather than when it receives them.  Both
readings are compatible with the paper's "send and receive quACKs" proxy
role; quACK-on-forward gives natural backpressure -- the server's window
only grows as fast as the proxy drains, and proxy buffer overflow shows
up as missing packets, i.e. as congestion on the server's segment.

:func:`cc_division_row` is experiment E7 (server -- proxy -- client,
clean fast first segment, lossy second) as a row of
:mod:`repro.sidecar.path`; :func:`run_cc_division` runs it.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field

from repro.netsim.core import Simulator
from repro.netsim.loss import BernoulliLoss, GilbertElliottLoss, LossModel
from repro.netsim.node import Router
from repro.netsim.packet import Packet, PacketKind
from repro.sidecar.agents import (
    DEFAULT_THRESHOLD,
    ConsumerEndpoint,
    ConsumerEndpointStats,
    EmitterEndpoint,
    HostEmitterAgent,
    ServerSidecar,
)
from repro.sidecar.consumer import QuackFeedback
from repro.sidecar.frequency import IntervalFrequency, PacketCountFrequency
from repro.sidecar.path import Agents, Row, run_row
from repro.netsim.topology import HopSpec
from repro.transport.cc.fixed import AimdRate
from repro.transport.connection import Transfer
from repro.transport.rtt import RttEstimator

#: The proxy quACKs every this many forwarded packets to the server.
QUACK_TO_SERVER_EVERY = 8
#: The downstream session's reset (:mod:`repro.sidecar.reset`): after
#: this many undecodable client quACKs in a row, draining this long.
RESET_AFTER_FAILURES = 3
SETTLE_TIME_S = 0.1
#: Packets the proxy holds in custody; past it, arrivals are dropped.
BUFFER_PACKETS = 512


@dataclass
class PacingProxyStats(ConsumerEndpointStats):
    taken_custody: int = field(default=0, init=False)
    forwarded: int = field(default=0, init=False)
    buffer_drops: int = field(default=0, init=False)
    max_buffer_depth: int = field(default=0, init=False)


class PacingProxy(ConsumerEndpoint):
    """The congestion-control-division proxy: buffer, pace, quACK.

    Custody applies to DATA packets of ``flow_id`` heading to ``client``;
    everything else (e2e ACKs, other flows) is forwarded untouched.
    Toward the client it holds the receiving role: the log is what it
    drains, the news moves its own window, a reset stops the drain.
    """

    def __init__(self, sim: Simulator, router: Router, server: str,
                 client: str, flow_id: str,
                 threshold: int = DEFAULT_THRESHOLD,
                 controller=None) -> None:
        super().__init__(sim, router, flow_id, PacingProxyStats(), threshold,
                         reset_after_failures=RESET_AFTER_FAILURES,
                         settle_time=SETTLE_TIME_S, peer=client)
        self.router = router
        self.client = client

        # Downstream (proxy->client) congestion state, fed by client
        # quACKs.  Any CongestionController works here -- "a different
        # kind of congestion control on each segment entirely" (§2.1);
        # e.g. pass BbrLite() to run a model-based pacer on the lossy leg.
        self.cc = controller if controller is not None else AimdRate()
        self.rtt = RttEstimator(initial_rtt=0.05)
        self._in_flight_bytes = 0

        # Upstream duty: quACK forwarded packets to the server.
        self.upstream = EmitterEndpoint(
            sim, router, server, flow_id,
            PacketCountFrequency(QUACK_TO_SERVER_EVERY), role="proxy",
            threshold=threshold, ledger_key="proxy-upstream")

        self._buffer: deque[Packet] = deque()
        router.policy = self
        router.add_tap(self._tap)
        #: Entries older than this are written off (releases their window
        #: share); must exceed the segment's worst-case delivery time.
        self.expire_age = 1.0
        sim.schedule(self.expire_age, self._sweep)

    # -- ForwardingPolicy ------------------------------------------------------

    def on_packet(self, packet: Packet) -> bool:
        if (packet.kind is not PacketKind.DATA
                or packet.dst != self.client
                or packet.flow_id != self.flow_id):
            return True  # not ours: forward immediately
        if len(self._buffer) >= BUFFER_PACKETS:
            self.stats.buffer_drops += 1
            return False  # custody taken... straight to the floor
        self._buffer.append(packet)
        self.stats.taken_custody += 1
        self.stats.max_buffer_depth = max(self.stats.max_buffer_depth,
                                          len(self._buffer))
        self._drain()
        return False

    # -- the receiving role toward the client --------------------------------------

    def _tap(self, packet: Packet) -> None:
        if (packet.kind is PacketKind.QUACK
                and packet.dst == self.router.name):
            self._on_quack_packet(packet)

    def _apply(self, feedback: QuackFeedback, now: float) -> None:
        for sent_at, size in feedback.received:
            self._in_flight_bytes -= size
            self.rtt.update(now - sent_at)
            self.cc.on_ack(size, self.rtt.latest, now)
        for sent_at, size in feedback.lost:
            self._in_flight_bytes -= size
            self.cc.on_congestion_event(sent_at, now)
        self._drain()

    def _resume(self) -> None:
        self._in_flight_bytes = 0  # it went with the old epoch's log
        self._drain()

    # -- draining -------------------------------------------------------------------

    def _drain(self) -> None:
        if self.reset.settling:
            return  # the pause of a reset: custody is kept, not drained
        while self._buffer:
            head = self._buffer[0]
            if not self.cc.can_send(self._in_flight_bytes, head.size_bytes):
                break
            self._buffer.popleft()
            now = self.sim.now
            self._in_flight_bytes += head.size_bytes
            self.consumer.record_send(head.identifier, (now, head.size_bytes),
                                      now)
            self.router.emit(head)
            self.stats.forwarded += 1
            self.upstream.on_data(head)

    def _sweep(self) -> None:
        now = self.sim.now
        for sent_at, size in self.consumer.expire_older_than(now,
                                                             self.expire_age):
            self._in_flight_bytes -= size
            self.cc.on_congestion_event(sent_at, now)
        self._drain()
        self.sim.schedule(self.expire_age / 2, self._sweep)

    @property
    def buffer_depth(self) -> int:
        return len(self._buffer)


def make_loss_model(loss_rate: float, loss_process: str,
                    rng: random.Random) -> LossModel:
    """Build the access link's loss model at a target average rate.

    ``"random"`` is i.i.d.; ``"bursty"`` is a Gilbert-Elliott channel
    with 50%-lossy bad states tuned to the same steady-state rate --
    the wireless-flavored case the sidecar story is really about.
    """
    if loss_process == "random":
        return BernoulliLoss(loss_rate, rng)
    if loss_process == "bursty":
        if loss_rate <= 0:
            return BernoulliLoss(0.0, rng)
        p_bad_to_good = 0.25
        pi_bad = min(2 * loss_rate, 0.99)
        p_good_to_bad = p_bad_to_good * pi_bad / (1 - pi_bad)
        return GilbertElliottLoss(p_good_to_bad, p_bad_to_good,
                                  loss_good=0.0, loss_bad=0.5, rng=rng)
    raise ValueError(f"unknown loss process {loss_process!r}")


@dataclass
class CcDivisionResult:
    """Outcome of one E7 run."""

    sidecar_enabled: bool
    completed: bool
    completion_time: float | None
    goodput_bps: float
    server_packets_sent: int
    server_retransmissions: int
    server_cwnd_final: float
    client_quacks: int
    proxy_stats: PacingProxyStats | None
    server_sidecar_failures: int


def run_cc_division(total_bytes: int = 1_500_000,
                    server_proxy_mbps: float = 200.0,
                    server_proxy_delay: float = 0.025,
                    proxy_client_mbps: float = 50.0,
                    proxy_client_delay: float = 0.005,
                    loss_rate: float = 0.02,
                    sidecar: bool = True,
                    seed: int = 1,
                    threshold: int = DEFAULT_THRESHOLD,
                    proxy_controller_factory=None,
                    loss_process: str = "random",
                    max_sim_seconds: float = 120.0) -> CcDivisionResult:
    """E7: a transfer across a clean wide segment then a lossy segment.

    With the sidecar disabled the run is a plain end-to-end transfer whose
    congestion controller conflates the lossy access hop with congestion;
    with it enabled, congestion control is divided at the proxy.
    """
    return run_row(cc_division_row(**locals()), None)


def cc_division_row(*, total_bytes, server_proxy_mbps, server_proxy_delay,
                    proxy_client_mbps, proxy_client_delay, loss_rate,
                    sidecar, seed, threshold, proxy_controller_factory,
                    loss_process, max_sim_seconds) -> Row:
    """E7's row, from :func:`run_cc_division`'s keywords."""
    server = None  # the server's sidecar, once attached

    def hops() -> list[HopSpec]:
        return [
            HopSpec(bandwidth_bps=server_proxy_mbps * 1e6,
                    delay_s=server_proxy_delay),
            HopSpec(bandwidth_bps=proxy_client_mbps * 1e6,
                    delay_s=proxy_client_delay,
                    loss_up=make_loss_model(
                        loss_rate, loss_process,
                        random.Random(random.Random(seed).random()))),
        ]

    def attach(transfer: Transfer) -> Agents | None:
        nonlocal server
        if not sidecar:
            return None
        sim, sender = transfer.sim, transfer.sender
        sender.cc_from_acks = False
        client = HostEmitterAgent(
            sim, transfer.receiver.host, peer="proxy", flow_id="flow0",
            policy=IntervalFrequency(max(2 * proxy_client_delay, 0.005)),
            threshold=threshold)
        controller = (proxy_controller_factory()
                      if proxy_controller_factory is not None else None)
        proxy = PacingProxy(sim, transfer.routers[0], server="server",
                            client="client", flow_id="flow0",
                            threshold=threshold, controller=controller)
        server = ServerSidecar(sim, sender, threshold=threshold, grace=2,
                               congestive_loss=True)
        return Agents(client, proxy)

    def read(transfer: Transfer, agents: Agents | None) -> CcDivisionResult:
        sender, receiver = transfer.sender, transfer.receiver
        return CcDivisionResult(
            sidecar_enabled=sidecar,
            completed=receiver.complete,
            completion_time=receiver.completed_at,
            goodput_bps=receiver.goodput_bps(),
            server_packets_sent=sender.stats.packets_sent,
            server_retransmissions=sender.stats.retransmitted_packets,
            server_cwnd_final=sender.cc.cwnd_packets,
            client_quacks=agents.emitter.quacks_sent if agents else 0,
            proxy_stats=agents.consumer.stats if agents else None,
            server_sidecar_failures=(server.stats.decode_failures
                                     if agents else 0),
        )

    return Row(total_bytes, ["proxy"], hops, sidecar_hop=1, attach=attach,
               read=read, slice_s=0.5, deadline_s=max_sim_seconds)


def format_result(result: CcDivisionResult) -> str:
    """The ``repro experiment cc-division`` report."""
    lines = [
        f"sidecar: {result.sidecar_enabled}",
        f"completed: {result.completed} in {result.completion_time:.3f} s"
        if result.completed else "completed: False",
        f"goodput: {result.goodput_bps / 1e6:.2f} Mbps",
        f"server packets: {result.server_packets_sent} "
        f"({result.server_retransmissions} retransmitted)",
    ]
    if result.proxy_stats is not None:
        lines.append(
            f"proxy: forwarded {result.proxy_stats.forwarded}, "
            f"max buffer {result.proxy_stats.max_buffer_depth}, "
            f"decode failures {result.proxy_stats.decode_failures}")
    return "\n".join(lines)
