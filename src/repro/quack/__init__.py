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

:mod:`repro.quack.iblt` (the E10 IBLT ablation) is imported by module
path, not from here: no runtime path uses it, so importing the package
does not load it.
"""

from repro.quack.bank import QuackBank
from repro.quack.base import DecodeResult, DecodeStatus, Quack, QuackScheme
from repro.quack.collision import (
    collision_probability,
    expected_collisions,
    monte_carlo_collision_rate,
    table3_row,
)
from repro.quack.decoder import decode_delta
from repro.quack.power_sum import PowerSumQuack
from repro.quack.strawman import EchoQuack, HashQuack
from repro.quack.wire import decode as decode_frame
from repro.quack.wire import encode as encode_frame

__all__ = [
    "Quack",
    "QuackScheme",
    "DecodeResult",
    "DecodeStatus",
    "PowerSumQuack",
    "QuackBank",
    "decode_delta",
    "EchoQuack",
    "HashQuack",
    "encode_frame",
    "decode_frame",
    "collision_probability",
    "expected_collisions",
    "monte_carlo_collision_rate",
    "table3_row",
]
