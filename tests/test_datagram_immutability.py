"""Nothing mutates a transport frame or a quACK message once it is built.

The frames (``DataFrame``, ``AckFrame``, ``AckFrequencyFrame``) and
``QuackMessage`` are slotted, non-frozen dataclasses: a frozen
``__init__`` would cost about twice as much on every datagram
(``tests/test_datagram_objects.py``).  What ``frozen=True`` guaranteed is
checked here instead, on whole runs of the two assisted protocols: the
field values of every frame when ``Packet.sealed`` wraps it and of every
``QuackMessage`` when ``quack_packet`` builds it are recorded, and each
object must still hold them when the run ends.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.netsim.packet import Packet
from repro.sidecar import protocol
from repro.sidecar.ack_reduction import run_ack_reduction
from repro.sidecar.cc_division import run_cc_division
from repro.sidecar.protocol import QuackMessage
from repro.transport.frames import AckFrame, AckFrequencyFrame, DataFrame

SCENARIOS = {
    "ack-reduction": lambda: run_ack_reduction(sidecar=True,
                                               total_bytes=300_000),
    "cc-division": lambda: run_cc_division(sidecar=True, total_bytes=300_000),
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_frames_and_quack_messages_are_unchanged_at_the_end_of_a_run(
        monkeypatch, scenario):
    built: list[tuple[object, tuple]] = []
    seal = Packet.sealed.__func__

    def recording_seal(cls, *args, **kwargs):
        built.append((kwargs["payload"],
                      dataclasses.astuple(kwargs["payload"])))
        return seal(cls, *args, **kwargs)

    def recording_message(*args, **kwargs):
        message = QuackMessage(*args, **kwargs)
        built.append((message, dataclasses.astuple(message)))
        return message

    monkeypatch.setattr(Packet, "sealed", classmethod(recording_seal))
    # ``quack_packet`` reads the name from its module at every call.
    monkeypatch.setattr(protocol, "QuackMessage", recording_message)

    SCENARIOS[scenario]()

    kinds = {type(obj) for obj, _ in built}
    assert {DataFrame, AckFrame, QuackMessage} <= kinds
    assert kinds <= {DataFrame, AckFrame, AckFrequencyFrame, QuackMessage}
    changed = [(obj, before) for obj, before in built
               if dataclasses.astuple(obj) != before]
    assert not changed, (f"{len(changed)} of {len(built)} objects changed "
                         f"after they were built, first: {changed[0]}")
