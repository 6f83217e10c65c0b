"""One assisted path: Table 1's protocols as rows of one builder.

Paper Table 1 describes every sidecar protocol along the same axes:
where the quACK emitter sits, which endpoint consumes its quACKs, and
what the feedback moves.  Each protocol here is a :class:`Row` -- its
path, the hop its quACKs cross, an ``attach`` that builds its agents and
a ``read`` that reports its result -- and :func:`run_row` is the one
place a :class:`~repro.transport.connection.Transfer` is built and run:

=================  ===========  =========================  ===================
row                sidecar hop  emitter -> consumer        the feedback moves
=================  ===========  =========================  ===================
E7 cc_division     1 (access)   client -> pacing proxy,    the proxy's drain,
                                proxy -> server            the server's window
E8 ack_reduction   0            proxy tap -> server        the server's window
E9 retransmission  1 (lossy)    p2 tap -> p1 proxy         local repairs
canonical          0            proxy tap -> server        window and losses
=================  ===========  =========================  ===================

``run_cc_division``, ``run_ack_reduction`` and ``run_retransmission``
are thin wrappers over their rows, and a row built with its agents off
(``sidecar=False``, ``innet_retx=False``) is the unassisted baseline.
A row is a pure function of its keywords: everything a run touches,
packet uids included, is created per run, so identical keywords
reproduce identical results in any process -- what :mod:`repro.sweep`
relies on to shard runs.

An *overlay* (a :class:`~repro.chaos.harness.ChaosSetup`) is what goes
wrong on top of a row, and :func:`run_row` applies it once: its
``faults_toward_client`` and ``faults_toward_server`` ride the row's
sidecar hop, and after ``attach`` its ``arm`` takes the agents (crashes
on the emitter, overload drivers on its flow table, a version switch).
Its ``verdict`` is a ``read``: it drains the run and checks the
invariants.  :func:`canonical_row`, the chaos harness's, is the one row
built from its overlay, with the defense, negotiation, checkpoints or
flow table the overlay asks for; ``arm`` refuses an overlay that asks
for them of any other row.  The verdict's yardstick, the unassisted
baseline, runs first and untraced, so that the main run's ``Transfer``
restarts the packet uids after it and the main run is byte-identical
either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.netsim.topology import HopSpec
from repro.sidecar.agents import (
    ConsumerEndpoint,
    EmitterEndpoint,
    ProxyEmitterTap,
    ServerSidecar,
)
from repro.sidecar.defense import DefenseConfig
from repro.sidecar.flowtable import FlowTable, FlowTableTap
from repro.sidecar.frequency import PacketCountFrequency
from repro.sidecar.health import HealthConfig
from repro.sidecar.negotiate import Capabilities, NegotiateConfig
from repro.sidecar.snapshot import CheckpointStore
from repro.transport.connection import Transfer


@dataclass
class Agents:
    """What ``attach`` built: the emitter whose quACKs cross the sidecar
    hop and the endpoint that consumes them."""

    emitter: EmitterEndpoint
    consumer: ConsumerEndpoint


@dataclass
class Row:
    """One protocol on its path: everything :func:`run_row` needs."""

    total_bytes: int
    #: The chain is ``server -> routers -> client``.
    routers: list[str]
    #: Fresh hop specs per run, so that every run draws the same losses.
    hops: Callable[[], list[HopSpec]]
    #: The hop the row's quACKs cross.
    sidecar_hop: int
    #: ``attach(transfer)`` sets the endpoints up and attaches the
    #: row's agents, if it has them on.
    attach: Callable[[Transfer], Agents | None]
    #: ``read(transfer, agents)`` is the row's result once the run stops.
    read: Callable[[Transfer, Agents | None], Any]
    #: Completion is checked every ``slice_s``; the run stops at
    #: ``deadline_s`` (:meth:`Transfer.run`).
    slice_s: float
    deadline_s: float


def run_row(row: Row, overlay) -> Any:
    """Run ``row`` under ``overlay`` (None for none): what ``row.read``
    reports."""
    hops = row.hops()
    if overlay is not None:
        hops[row.sidecar_hop].faults_up = overlay.faults_toward_client
        hops[row.sidecar_hop].faults_down = overlay.faults_toward_server
    transfer = Transfer(row.total_bytes, row.routers, hops)
    agents = row.attach(transfer)
    if overlay is not None:
        overlay.arm(transfer, agents)
    transfer.run(slice_s=row.slice_s, deadline_s=row.deadline_s)
    return row.read(transfer, agents)


def completion_time(transfer: Transfer, agents: Agents | None) -> float:
    """When the receiver completed, or when an incomplete run stopped
    (the canonical row's ``read``)."""
    if transfer.sender.complete and transfer.receiver.complete:
        return transfer.receiver.completed_at
    return transfer.sim.now


# -- the canonical row --------------------------------------------------------

#: Two identical hops, server -> proxy -> client.
BANDWIDTH_BPS = 5e6
DELAY_S = 0.005

#: The proxy quACKs every ``QUACK_EVERY`` packets with threshold
#: ``THRESHOLD``; the server resets the session after
#: ``RESET_AFTER_FAILURES`` straight decode failures and lets the pipe
#: settle for ``SETTLE_TIME_S`` around a reset.
QUACK_EVERY = 4
THRESHOLD = 16
RESET_AFTER_FAILURES = 3
SETTLE_TIME_S = 0.1

SLICE_S = 0.25
DEADLINE_S = 60.0

#: The flow table tenant of the canonical row's flow.
PRIMARY_TENANT = "primary"


def canonical_row(overlay, total_bytes: int, health: HealthConfig,
                  assisted: bool) -> Row:
    """The chaos harness's row: a :class:`ProxyEmitterTap` quACKing to a
    :class:`ServerSidecar` that applies receipts and (non-congestive)
    losses under the ``health`` ladder, both armed as ``overlay`` asks.

    The overlay's ``defended`` arms the plausibility gates, its
    ``negotiate`` the HELLO handshake (the emitter offering
    ``emitter_capabilities``), its ``checkpoint_interval_s`` emitter
    checkpoints, and its ``overload`` puts the tap in a shared
    :class:`FlowTable` (tenant :data:`PRIMARY_TENANT`) whose batch timer
    its emission rides.
    """

    def hops() -> list[HopSpec]:
        return [HopSpec(bandwidth_bps=BANDWIDTH_BPS, delay_s=DELAY_S),
                HopSpec(bandwidth_bps=BANDWIDTH_BPS, delay_s=DELAY_S)]

    def attach(transfer: Transfer) -> Agents | None:
        if not assisted:
            return None
        sim, (proxy,) = transfer.sim, transfer.routers
        consumer_negotiate = emitter_negotiate = None
        if overlay.negotiate:
            consumer_negotiate = NegotiateConfig(capabilities=Capabilities())
            emitter_negotiate = NegotiateConfig(
                capabilities=overlay.emitter_capabilities or Capabilities())
        tap_kwargs = dict(
            server="server", client="client", flow_id="flow0",
            policy=PacketCountFrequency(QUACK_EVERY), threshold=THRESHOLD,
            negotiate=emitter_negotiate)
        interval = overlay.checkpoint_interval_s
        if interval is not None:
            tap_kwargs.update(checkpoints=CheckpointStore(),
                              checkpoint_interval_s=interval)
        if overlay.overload is None:
            tap = ProxyEmitterTap(sim, proxy, **tap_kwargs)
        else:
            table = FlowTable(sim, overlay.overload.table_config())
            tap = FlowTableTap(sim, proxy, table=table, tenant=PRIMARY_TENANT,
                               **tap_kwargs)
        server = ServerSidecar(
            sim, transfer.sender, threshold=THRESHOLD, grace=2,
            apply_losses=True, congestive_loss=False,
            reset_after_failures=RESET_AFTER_FAILURES,
            settle_time=SETTLE_TIME_S, health=health,
            defense=DefenseConfig() if overlay.defended else None,
            negotiate=consumer_negotiate,
            peer="proxy" if overlay.negotiate else None)
        return Agents(tap, server)

    return Row(total_bytes, ["proxy"], hops, sidecar_hop=0, attach=attach,
               read=completion_time, slice_s=SLICE_S, deadline_s=DEADLINE_S)
