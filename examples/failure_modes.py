#!/usr/bin/env python3
"""A tour of the quACK's failure modes and how a session handles them.

The quACK is not magic: its guarantees are bounded by the threshold t,
the identifier width b, and the consistency of the cumulative state.
This example triggers each documented failure on purpose:

1. threshold exceeded (Section 3.2: "if t < m, decoding fails");
2. identifier collisions making packet fates indeterminate (Section 3.2);
3. a desynchronized session (the Section 3.3 reordering hazard) and the
   reset that heals it (Section 3.3: "must reset the connection");
4. infrastructure failures under the chaos harness -- a middlebox
   crash/restart and a sidecar-channel blackout -- showing the health
   state machine walking the degradation ladder and back.

Run::

    python examples/failure_modes.py
"""

import random

from repro.quack.base import DecodeStatus
from repro.quack.power_sum import PowerSumQuack
from repro.sidecar.consumer import QuackConsumer

P32 = 4_294_967_291


def threshold_exceeded() -> None:
    print("== 1. threshold exceeded ==")
    rng = random.Random(1)
    sent = [rng.getrandbits(32) for _ in range(100)]
    quack = PowerSumQuack(threshold=5)
    quack.insert_many(sent[9:])  # 9 missing > t = 5
    result = quack.decode(sent)
    print(f"9 missing against t=5 -> status: {result.status.value}")
    print("the paper's remedy: reset the session and pick a larger t "
          "(see parameter_tuning.py)\n")


def collisions() -> None:
    print("== 2. identifier collisions (indeterminacy) ==")
    # Two distinct 33-bit-ish values that collide modulo the 32-bit prime.
    a, b = 4, P32 + 4
    sent = [a, b, 777]
    quack = PowerSumQuack(threshold=4)
    quack.insert_many([a, 777])  # b is missing -- but who can tell?
    result = quack.decode(sent)
    print(f"log holds {a} and {b}, congruent mod p; one is missing")
    print(f"determinate missing: {list(result.missing) or 'none'}")
    for group, count in result.indeterminate:
        print(f"indeterminate: {count} of candidates {list(group)}")
    from repro.quack.collision import collision_probability
    print(f"(probability of this at n=1000, b=32: "
          f"{collision_probability(1000, 32):.2g} -- Table 3)\n")


def desync_and_reset() -> None:
    print("== 3. desynchronized session and reset ==")
    consumer = QuackConsumer(threshold=4, grace=1)
    receiver = PowerSumQuack(4)
    # 222 overtakes 111, so the consumer wrongly declares 111 lost
    # (it is missing, and not at the tail where packets are in transit)...
    consumer.record_send(111, "pkt-111", now=0.0)
    consumer.record_send(222, "pkt-222", now=1.0)
    receiver.insert(222)
    feedback = consumer.on_quack(receiver.copy(), now=2.0)
    print(f"declared lost prematurely: {feedback.lost}")
    # ...and then it arrives after all:
    receiver.insert(111)
    poisoned = consumer.on_quack(receiver.copy(), now=3.0)
    print(f"next decode: {poisoned.status.value} "
          f"(the cumulative states disagree forever)")
    # The Section 3.3 remedy: both sides reset and begin a new epoch.
    consumer.reset()
    receiver = PowerSumQuack(4)  # the emitter's fresh accumulator
    consumer.record_send(333, "pkt-333", now=4.0)
    receiver.insert(333)
    healed = consumer.on_quack(receiver, now=5.0)
    print(f"after reset: status={healed.status.value}, "
          f"received={healed.received}")
    print("(the full drain/epoch/ResetMessage handshake runs in "
          "tests/sidecar/test_reset_protocol.py)")


def chaos_failures() -> None:
    print("\n== 4. infrastructure failures (chaos harness) ==")
    from repro.chaos.harness import format_result, run_plan

    print("-- middlebox crash/restart: the accumulator is wiped twice "
          "mid-flow;")
    print("   the server detects the count regression and heals with "
          "implicit resets")
    print(format_result(run_plan("crash-restart", seed=1)))

    print("\n-- sidecar-channel blackout: no quACKs for 0.6 s; the sender "
          "degrades")
    print("   to pure end-to-end delivery, then recovers after probation")
    print(format_result(run_plan("blackout", seed=1)))


def main() -> None:
    threshold_exceeded()
    collisions()
    desync_and_reset()
    chaos_failures()


if __name__ == "__main__":
    main()
