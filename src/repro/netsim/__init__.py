"""Discrete-event network simulator: the substrate for sidecar protocols.

Public surface:

* :class:`~repro.netsim.core.Simulator` -- the event loop;
* :class:`~repro.netsim.packet.Packet`, :class:`~repro.netsim.packet.PacketKind`;
* :class:`~repro.netsim.link.Link` and the loss models in
  :mod:`repro.netsim.loss`;
* :class:`~repro.netsim.node.Host`, :class:`~repro.netsim.node.Router`;
* :func:`~repro.netsim.topology.build_path`,
  :class:`~repro.netsim.topology.HopSpec`;
* :class:`~repro.netsim.trace.FlowMonitor`, the per-transfer progress
  monitor.
"""

from repro.netsim.core import (
    EventHandle,
    Simulator,
    Timer,
    default_scheduler,
)
from repro.netsim.sched import CalendarScheduler
from repro.netsim.faults import (
    Blackout,
    BurstLoss,
    CompositeFault,
    Corruption,
    DelaySpike,
    Duplication,
    FaultDecision,
    FaultInjector,
    FaultInjectorStats,
    SIDECAR_KINDS,
)
from repro.netsim.link import Link, LinkStats
from repro.netsim.loss import (
    BernoulliLoss,
    DeterministicLoss,
    GilbertElliottLoss,
    LossModel,
    NoLoss,
)
from repro.netsim.node import ForwardingPolicy, Host, Node, Router
from repro.netsim.packet import Packet, PacketKind
from repro.netsim.topology import (
    HopSpec,
    PathTopology,
    build_parallel_paths,
    build_path,
)
from repro.netsim.trace import FlowMonitor

__all__ = [
    "Simulator",
    "EventHandle",
    "Timer",
    "CalendarScheduler",
    "default_scheduler",
    "Packet",
    "PacketKind",
    "Link",
    "LinkStats",
    "LossModel",
    "NoLoss",
    "BernoulliLoss",
    "GilbertElliottLoss",
    "DeterministicLoss",
    "Node",
    "Host",
    "Router",
    "ForwardingPolicy",
    "HopSpec",
    "PathTopology",
    "build_path",
    "build_parallel_paths",
    "FaultInjector",
    "FaultInjectorStats",
    "FaultDecision",
    "Blackout",
    "BurstLoss",
    "CompositeFault",
    "Corruption",
    "DelaySpike",
    "Duplication",
    "SIDECAR_KINDS",
    "FlowMonitor",
]
