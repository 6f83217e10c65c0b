#!/usr/bin/env python3
"""Quickstart: the quACK in five minutes.

The quACK interface (paper, Fig. 2):

    Construction:  R -> quACK
    Decoding:      S + quACK -> S \\ R

A receiver folds the identifiers of the packets it received into a tiny
fixed-size summary; a sender holding the list of sent identifiers decodes
exactly which packets are missing.  Run::

    python examples/quickstart.py
"""

import random

from repro.ids.identifiers import IdentifierFactory
from repro.quack import wire
from repro.quack.base import DecodeStatus
from repro.quack.power_sum import PowerSumQuack
from repro.quack.strawman import EchoQuack


def main() -> None:
    rng = random.Random(2024)

    # --- a connection's packets ------------------------------------------------
    # Identifiers model "32 bits from a randomly-encrypted QUIC header":
    # everyone who sees a packet derives the same pseudorandom value.
    factory = IdentifierFactory(key=b"demo-connection", bits=32)
    sent = [factory.identifier(pn) for pn in range(1000)]

    # The network dropped 12 random packets.
    lost_positions = sorted(rng.sample(range(1000), 12))
    received = [identifier for pn, identifier in enumerate(sent)
                if pn not in lost_positions]
    print(f"sent {len(sent)} packets, {len(lost_positions)} lost "
          f"at positions {lost_positions}")

    # --- receiver side: construct -----------------------------------------------
    # t=20 tolerates up to 20 missing packets; b=32-bit identifiers.
    quack = PowerSumQuack(threshold=20, bits=32)
    for identifier in received:
        quack.insert(identifier)  # ~one multiply-add per power sum

    frame = wire.encode(quack)
    print(f"quACK wire size: {len(frame)} bytes "
          f"(payload {quack.wire_size_bits() // 8} bytes; an echo of all "
          f"received ids would be {EchoQuack(32).bits * len(received) // 8})")

    # --- sender side: decode ---------------------------------------------------
    received_quack = wire.decode(frame)
    result = received_quack.decode(sent)
    assert result.status is DecodeStatus.OK
    missing_positions = sorted(sent.index(identifier)
                               for identifier in result.missing)
    print(f"decoded missing positions: {missing_positions}")
    assert missing_positions == lost_positions
    print("decode matches ground truth")

    # --- failure modes are explicit -----------------------------------------------
    tiny = PowerSumQuack(threshold=4)
    for identifier in received[:-30]:
        tiny.insert(identifier)
    overflowed = tiny.decode(sent)
    print(f"with t=4 and 42 missing: status={overflowed.status.value} "
          f"(the session must reset, paper Section 3.3)")


if __name__ == "__main__":
    main()
