"""A "paranoid" (QUIC-like, E2E-encrypted) transport over the simulator.

Public surface:

* :class:`~repro.transport.connection.SenderConnection`,
  :class:`~repro.transport.connection.ReceiverConnection`;
* congestion controllers in :mod:`repro.transport.cc`;
* :class:`~repro.transport.ack.AckFrequencyPolicy` (the QUIC
  ACK-frequency extension knob);
* frames and sizing constants in :mod:`repro.transport.frames`;
* :class:`~repro.transport.ranges.RangeSet`,
  :class:`~repro.transport.rtt.RttEstimator` utilities.
"""
