"""Sidecar protocol #2: ACK reduction (paper, Section 2.2).

Fig. 3: the proxy's sidecar quACKs the DATA packets it forwards toward
the client back to the server "e.g., every other packet such as in TCP",
and the server treats the quACKs as client ACKs for *window movement*:
"This protocol can enable the server to move its sending window ahead
more quickly than if it had to wait for ACKs from the client an
additional hop away.  The client can also transmit fewer ACKs using the
proposed ACK frequency extension in QUIC, reducing network congestion."

End-to-end ACKs keep their special roles: retransmission still keys off
them (and off the PTO), exactly as the paper prescribes ("the server can
still rely on quACKs in most cases, and use the less frequent end-to-end
ACKs when retransmission is necessary").

:func:`ack_reduction_row` is experiment E8 as a row of
:mod:`repro.sidecar.path`; :func:`run_ack_reduction` runs one transfer
in a given configuration, and the bench sweeps three:

* dense client ACKs, no sidecar (the status quo baseline);
* sparse client ACKs, no sidecar (naive ACK thinning -- hurts);
* sparse client ACKs + proxy quACKs (the sidecar protocol).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.netsim.loss import BernoulliLoss
from repro.netsim.topology import HopSpec
from repro.sidecar.agents import (
    DEFAULT_THRESHOLD,
    ProxyEmitterTap,
    ServerSidecar,
)
from repro.sidecar.frequency import PacketCountFrequency
from repro.sidecar.path import Agents, Row, run_row
from repro.transport.connection import ReceiverConnection, Transfer

#: Section 4.3: "the receiver could quACK e.g. every n = 32 packets";
#: we default the *client's* thinned ACK cadence to the same figure.
SPARSE_ACK_EVERY = 32

#: Section 2.2: the proxy quACKs "every other packet such as in TCP".
QUACK_EVERY = 2


@dataclass
class AckReductionResult:
    """Outcome of one E8 run."""

    sidecar_enabled: bool
    ack_every: int
    completed: bool
    completion_time: float | None
    goodput_bps: float
    client_acks_sent: int
    client_ack_bytes: int
    proxy_quacks_sent: int
    quack_bytes: int
    server_packets_sent: int
    server_retransmissions: int
    server_sidecar_failures: int


def run_ack_reduction(total_bytes: int = 1_500_000,
                      ack_every: int = SPARSE_ACK_EVERY,
                      sidecar: bool = True,
                      quack_every: int = QUACK_EVERY,
                      server_proxy_mbps: float = 100.0,
                      server_proxy_delay: float = 0.03,
                      proxy_client_mbps: float = 25.0,
                      proxy_client_delay: float = 0.01,
                      loss_rate: float = 0.005,
                      seed: int = 1,
                      threshold: int = DEFAULT_THRESHOLD,
                      max_sim_seconds: float = 120.0) -> AckReductionResult:
    """E8: one transfer with a chosen client-ACK cadence, +/- sidecar."""
    return run_row(ack_reduction_row(**locals()), None)


def ack_reduction_row(*, total_bytes, ack_every, sidecar, quack_every,
                      server_proxy_mbps, server_proxy_delay,
                      proxy_client_mbps, proxy_client_delay, loss_rate, seed,
                      threshold, max_sim_seconds) -> Row:
    """E8's row, from :func:`run_ack_reduction`'s keywords."""

    def hops() -> list[HopSpec]:
        return [
            HopSpec(bandwidth_bps=server_proxy_mbps * 1e6,
                    delay_s=server_proxy_delay),
            HopSpec(bandwidth_bps=proxy_client_mbps * 1e6,
                    delay_s=proxy_client_delay,
                    loss_up=BernoulliLoss(loss_rate, random.Random(
                        random.Random(seed).random()))),
        ]

    def attach(transfer: Transfer) -> Agents | None:
        agents = None
        if sidecar:
            tap = ProxyEmitterTap(
                transfer.sim, transfer.routers[0], server="server",
                client="client", flow_id="flow0",
                policy=PacketCountFrequency(quack_every), threshold=threshold)
            # Window movement only: losses decoded from proxy quACKs are
            # not acted on (retransmission stays with the e2e ACKs / PTO).
            server = ServerSidecar(transfer.sim, transfer.sender,
                                   threshold=threshold, grace=2,
                                   apply_losses=False)
            agents = Agents(tap, server)
        # The client starts at QUIC's stock cadence; a thinner cadence is
        # negotiated in-band with the ACK-frequency extension frame,
        # exactly as Section 2.2 prescribes ("The client can also transmit
        # fewer ACKs using the proposed ACK frequency extension in QUIC")
        # -- after the sidecar has registered its send listener, so the
        # frame is logged too.
        if ack_every != 2:
            transfer.sender.request_ack_frequency(ack_every=ack_every,
                                                  max_delay_s=0.05)
        return agents

    def read(transfer: Transfer, agents: Agents | None) -> AckReductionResult:
        sender, receiver = transfer.sender, transfer.receiver
        return AckReductionResult(
            sidecar_enabled=sidecar,
            ack_every=ack_every,
            completed=receiver.complete,
            completion_time=receiver.completed_at,
            goodput_bps=receiver.goodput_bps(),
            client_acks_sent=receiver.stats.acks_sent,
            client_ack_bytes=(receiver.stats.acks_sent
                              * ReceiverConnection.ACK_BASE_BYTES),
            proxy_quacks_sent=agents.emitter.quacks_sent if agents else 0,
            quack_bytes=(agents.emitter.emitter.stats.emitted_bytes
                         if agents else 0),
            server_packets_sent=sender.stats.packets_sent,
            server_retransmissions=sender.stats.retransmitted_packets,
            server_sidecar_failures=(agents.consumer.stats.decode_failures
                                     if agents else 0),
        )

    return Row(total_bytes, ["proxy"], hops, sidecar_hop=0, attach=attach,
               read=read, slice_s=0.5, deadline_s=max_sim_seconds)


def format_result(result: AckReductionResult) -> str:
    """The ``repro experiment ack-reduction`` report."""
    return "\n".join([
        f"sidecar: {result.sidecar_enabled}, "
        f"client ACK cadence: every {result.ack_every}",
        f"completed: {result.completed} in {result.completion_time:.3f} s"
        if result.completed else "completed: False",
        f"client ACKs: {result.client_acks_sent} "
        f"({result.client_ack_bytes} bytes)",
        f"proxy quACKs: {result.proxy_quacks_sent} "
        f"({result.quack_bytes} bytes)",
    ])
