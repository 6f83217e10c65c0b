"""Sidecar protocols: PEP-style assistance for paranoid transports.

The three protocols of the paper's Table 1, built on the quACK:

* :mod:`repro.sidecar.cc_division` -- congestion-control division
  (Section 2.1, experiment E7);
* :mod:`repro.sidecar.ack_reduction` -- ACK reduction (Section 2.2, E8);
* :mod:`repro.sidecar.retransmission` -- in-network retransmission
  (Section 2.3, E9);

each a row of one assisted path (:mod:`repro.sidecar.path`), plus the
shared session machinery:

* :class:`~repro.sidecar.emitter.QuackEmitter` /
  :class:`~repro.sidecar.consumer.QuackConsumer` -- the receiver-side and
  sender-side quACK state of Sections 3.2-3.3;
* frequency policies (Section 4.3) in :mod:`repro.sidecar.frequency`;
* wire messages in :mod:`repro.sidecar.protocol`;
* host/proxy agents in :mod:`repro.sidecar.agents`, wiring over the
  session machines: the Section 3.3 reset handshake (``reset``),
  capability negotiation (``negotiate``), emitter checkpoint/restore
  (``snapshot``), plausibility gates and quarantine (``defense``) and
  the graceful-degradation ladder (``health``).
"""
