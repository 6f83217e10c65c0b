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

:func:`run_ack_reduction` (experiment E8) runs one transfer in a given
configuration; the bench sweeps three:

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
from repro.transport.ack import AckFrequencyPolicy
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
    """E8: one transfer with a chosen client-ACK cadence, +/- sidecar.

    Pure in its arguments (all state, including packet uids, is created
    per call) so :mod:`repro.sweep` can shard runs across processes.
    """
    rng = random.Random(seed)
    # The client starts at QUIC's stock cadence; a thinner cadence is
    # negotiated in-band with the ACK-frequency extension frame, exactly
    # as Section 2.2 prescribes ("The client can also transmit fewer ACKs
    # using the proposed ACK frequency extension in QUIC").
    transfer = Transfer(total_bytes, ["proxy"], [
        HopSpec(bandwidth_bps=server_proxy_mbps * 1e6,
                delay_s=server_proxy_delay),
        HopSpec(bandwidth_bps=proxy_client_mbps * 1e6,
                delay_s=proxy_client_delay,
                loss_up=BernoulliLoss(loss_rate, random.Random(rng.random()))),
    ], ack_policy=AckFrequencyPolicy())
    sim, sender, receiver = transfer.sim, transfer.sender, transfer.receiver

    proxy_tap: ProxyEmitterTap | None = None
    server_sidecar: ServerSidecar | None = None
    if sidecar:
        proxy_tap = ProxyEmitterTap(
            sim, transfer.routers[0], server="server", client="client",
            flow_id="flow0", policy=PacketCountFrequency(quack_every), threshold=threshold)
        # Window movement only: losses decoded from proxy quACKs are not
        # acted on (retransmission stays with the e2e ACKs / PTO).
        server_sidecar = ServerSidecar(sim, sender, threshold=threshold,
                                       grace=2, apply_losses=False)

    if ack_every != 2:
        # Negotiate the thinner cadence in-band (after the sidecar has
        # registered its send listener, so the frame is logged too).
        sender.request_ack_frequency(ack_every=ack_every, max_delay_s=0.05)

    transfer.run(slice_s=0.5, deadline_s=max_sim_seconds)

    completion = receiver.completed_at
    ack_bytes = receiver.stats.acks_sent * ReceiverConnection.ACK_BASE_BYTES
    quack_count = proxy_tap.quacks_sent if proxy_tap else 0
    quack_bytes = (proxy_tap.emitter.stats.emitted_bytes if proxy_tap else 0)
    return AckReductionResult(
        sidecar_enabled=sidecar,
        ack_every=ack_every,
        completed=receiver.complete,
        completion_time=completion,
        goodput_bps=receiver.goodput_bps(),
        client_acks_sent=receiver.stats.acks_sent,
        client_ack_bytes=ack_bytes,
        proxy_quacks_sent=quack_count,
        quack_bytes=quack_bytes,
        server_packets_sent=sender.stats.packets_sent,
        server_retransmissions=sender.stats.retransmitted_packets,
        server_sidecar_failures=(server_sidecar.stats.decode_failures
                                 if server_sidecar else 0),
    )


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
