#!/usr/bin/env python3
"""Choosing quACK parameters (paper, Sections 4.2-4.3).

A receiver configures three knobs: the threshold t (missing packets per
quACK), the identifier width b, and the communication frequency.  This
example walks the trade-offs the paper walks:

* t -> quACK size and construction cost grow linearly;
* b -> collision (indeterminacy) probability falls exponentially;
* frequency -> per-protocol sizing envelopes (Section 4.3).

Run::

    python examples/parameter_tuning.py
"""

from repro.bench.frequency import (
    PAPER_TARGET_MISSING,
    ack_reduction_sizing,
    cc_division_sizing,
)
from repro.bench.timing import measure
from repro.bench.workloads import make_workload
from repro.quack.collision import collision_probability
from repro.quack.power_sum import PowerSumQuack
from repro.sidecar.frequency import retransmission_cadence


def threshold_tradeoff() -> None:
    print("== threshold t: size and construction cost (n=1000, b=32) ==")
    workload = make_workload(n=1000, num_missing=0, bits=32, seed=0)
    identifiers = workload.sent.tolist()
    print(f"{'t':>4s} {'size (bytes)':>13s} {'construction (us)':>18s}")
    for threshold in (5, 10, 20, 40, 80):
        quack = PowerSumQuack(threshold=threshold, bits=32)

        def build() -> None:
            q = PowerSumQuack(threshold=threshold, bits=32)
            for identifier in identifiers:
                q.insert(identifier)

        timing = measure(build, trials=5, warmup=1)
        print(f"{threshold:>4d} {quack.wire_size_bits() // 8:>13d} "
              f"{timing.mean_us:>18,.0f}")
    print()


def bits_tradeoff() -> None:
    print("== identifier bits b: collision probability (Table 3) ==")
    print(f"{'b':>4s} {'P(collision), n=1000':>22s} "
          f"{'expected collisions':>20s}")
    for bits in (8, 16, 24, 32, 48):
        p = collision_probability(1000, bits)
        print(f"{bits:>4d} {p:>22.3g} {1000 * p:>20.3g}")
    print()


def frequency_selection() -> None:
    print("== communication frequency per protocol (Section 4.3) ==")
    cc = cc_division_sizing()
    print(f"cc division (once per RTT @ 200 Mbps / 60 ms / 2% loss):\n"
          f"  n={cc.packets_per_rtt} packets/RTT, t={cc.threshold}, "
          f"quACK={cc.quack_bytes} B "
          f"({cc.quack_overhead_bps / 1e3:.1f} kbps overhead; "
          f"strawman-1 echo would cost "
          f"{cc.strawman1_overhead_bps / 1e3:.0f} kbps)")
    ack = ack_reduction_sizing()
    print(f"ack reduction (every n={ack.every_n} packets, count omitted):\n"
          f"  quACK={ack.quack_bytes} B vs strawman-1 {ack.strawman1_bytes} B "
          f"-> {ack.bandwidth_saving_factor:.2f}x saving (needs t < n)")
    print(f"in-network retransmission (target {PAPER_TARGET_MISSING} "
          f"missing per quACK):")
    for loss in (0.20, 0.05, 0.01, 0.0):
        cadence = retransmission_cadence(loss, PAPER_TARGET_MISSING)
        print(f"  loss {loss:>5.0%} -> quACK every {cadence:>3d} packets")


def main() -> None:
    threshold_tradeoff()
    bits_tradeoff()
    frequency_selection()


if __name__ == "__main__":
    main()
