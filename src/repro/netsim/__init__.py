"""Discrete-event network simulator: the substrate for sidecar protocols.

Public surface:

* :class:`~repro.netsim.core.Simulator` -- the event loop;
* :class:`~repro.netsim.packet.Packet`, :class:`~repro.netsim.packet.PacketKind`;
* :class:`~repro.netsim.link.Link` and the loss models in
  :mod:`repro.netsim.loss`;
* :class:`~repro.netsim.node.Host`, :class:`~repro.netsim.node.Router`;
* :func:`~repro.netsim.topology.build_path`,
  :class:`~repro.netsim.topology.HopSpec`.
"""
