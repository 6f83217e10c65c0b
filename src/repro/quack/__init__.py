"""The quACK: a concise, decodable representation of received packets.

Public surface:

* :class:`~repro.quack.power_sum.PowerSumQuack` -- the paper's power-sum
  construction (Section 3);
* :func:`~repro.quack.decoder.decode_delta` -- sender-side decoding of a
  difference quACK against the sent-packet log;
* :class:`~repro.quack.strawman.EchoQuack`,
  :class:`~repro.quack.strawman.HashQuack` -- the two strawmen (Section 4.1);
* :mod:`~repro.quack.wire` -- framing (:func:`~repro.quack.wire.encode` /
  :func:`~repro.quack.wire.decode`);
* :mod:`~repro.quack.collision` -- collision-probability analytics (Table 3).

:mod:`repro.quack.iblt` holds the E10 IBLT ablation; no runtime path
uses it.
"""
