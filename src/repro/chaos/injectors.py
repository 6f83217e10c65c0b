"""Sidecar-aware chaos pieces that the generic netsim layer cannot know.

:mod:`repro.netsim.faults` is deliberately payload-agnostic; this module
bridges it to the sidecar protocol:

* :func:`sidecar_corrupter` -- a :class:`~repro.netsim.faults.Corruption`
  corrupter that understands both sidecar datagram families.  QuACK
  snapshots already travel as bytes and get their frame bits flipped;
  Reset/Config messages travel as dataclasses in the simulator, so the
  corrupter round-trips them through the real control wire format
  (:func:`~repro.sidecar.protocol.encode_control`), flips bits, and
  re-parses -- yielding either a survivable decode (the checksum
  collided, vanishingly rare) or a
  :class:`~repro.sidecar.protocol.CorruptFrame` the receiving agent
  counts and drops.
* :class:`MiddleboxCrash` -- not a link fault at all: a scheduled
  process-level failure that wipes a quACK emitter's volatile state
  (accumulator *and* epoch) at fixed times, exactly what a middlebox
  reboot does to the paper's proxy.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Sequence

from repro.errors import WireFormatError
from repro.netsim.core import Simulator
from repro.netsim.faults import flip_frame_bits
from repro.netsim.packet import Packet
from repro.sidecar.protocol import (
    ConfigMessage,
    CorruptFrame,
    QuackMessage,
    ResetMessage,
    decode_control,
    encode_control,
)


def sidecar_corrupter(packet: Packet, rng: random.Random) -> Packet | None:
    """Bit-flip any sidecar datagram, quACK or control alike."""
    payload = packet.payload
    if isinstance(payload, QuackMessage):
        mangled = dataclasses.replace(
            payload, frame=flip_frame_bits(payload.frame, rng))
        return packet.with_payload(mangled)
    if isinstance(payload, (ResetMessage, ConfigMessage)):
        frame = flip_frame_bits(encode_control(payload), rng)
        try:
            reparsed = decode_control(frame)
        except WireFormatError:
            reparsed = CorruptFrame(frame=frame, flow_id=payload.flow_id)
        return packet.with_payload(reparsed)
    return None


class MiddleboxCrash:
    """Crash/restart a quACK emitter agent at scheduled times.

    ``agent`` is anything with a ``crash_restart()`` method
    (:class:`~repro.sidecar.agents.ProxyEmitterTap` or
    :class:`~repro.sidecar.agents.HostEmitterAgent`).  Each crash wipes
    the accumulator and resets the epoch to zero; the consumer side must
    detect the regression and heal with an implicit reset.
    """

    def __init__(self, times: Sequence[float]) -> None:
        self.times = tuple(sorted(float(t) for t in times))
        self.crashes = 0

    def arm(self, sim: Simulator, agent) -> None:
        for time in self.times:
            sim.schedule_at(time, self._crash, agent)

    def _crash(self, agent) -> None:
        self.crashes += 1
        agent.crash_restart()

    def __repr__(self) -> str:
        return (f"MiddleboxCrash(at "
                f"{', '.join(f'{t:.2f}s' for t in self.times)})")
