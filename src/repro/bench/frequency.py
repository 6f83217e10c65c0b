"""Section 4.3 analysis: selecting the communication frequency.

The paper sizes the quACK for each sidecar protocol with a back-of-the-
envelope model; this module reproduces those envelopes as code so the
bench can print the same numbers and the tests can pin them down.

* Congestion-control division: "Assuming a 60ms RTT on a 200 Mbps link
  and a maximum handled 2% loss rate, at 1500 bytes/packet (a typical
  MTU), this is ~1000 sent packets with 20 missing packets per RTT" --
  :func:`cc_division_sizing`.
* ACK reduction: quACK every n=32 packets, count field omitted ("we can
  omit c, which is always n"), "Setting t < n uses less bandwidth
  compared to Strawman 1" -- :func:`ack_reduction_sizing`.
* In-network retransmission: cadence from the loss ratio targeting a
  constant number of missing packets per quACK -- the rule the
  sender-side proxy itself runs,
  :func:`repro.sidecar.frequency.retransmission_cadence`, at the
  paper's :data:`PAPER_TARGET_MISSING`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.bench.workloads import PAPER_B, PAPER_COUNT_BITS

#: The Section 4.3 scenario constants.
PAPER_RTT_S = 0.060
PAPER_LINK_BPS = 200e6
PAPER_LOSS = 0.02
PAPER_PACKET_BYTES = 1500
#: "could target a constant t = 20 missing packets per quACK".
PAPER_TARGET_MISSING = 20


@dataclass(frozen=True)
class CcDivisionSizing:
    """Per-RTT quACK budget for congestion-control division."""

    packets_per_rtt: int
    expected_missing_per_rtt: int
    threshold: int
    quack_bytes: int
    quack_overhead_bps: float
    strawman1_bytes: int
    strawman1_overhead_bps: float


def cc_division_sizing(rtt_s: float = PAPER_RTT_S,
                       link_bps: float = PAPER_LINK_BPS,
                       loss_rate: float = PAPER_LOSS) -> CcDivisionSizing:
    """The paper's once-per-RTT budget: n ~= 1000, t = 20 at 2% loss."""
    packets = int(link_bps * rtt_s / (8 * PAPER_PACKET_BYTES))
    missing = math.ceil(packets * loss_rate)
    threshold = missing
    quack_bits = threshold * PAPER_B + PAPER_COUNT_BITS
    strawman1_bits = packets * PAPER_B
    return CcDivisionSizing(
        packets_per_rtt=packets,
        expected_missing_per_rtt=missing,
        threshold=threshold,
        quack_bytes=(quack_bits + 7) // 8,
        quack_overhead_bps=quack_bits / rtt_s,
        strawman1_bytes=(strawman1_bits + 7) // 8,
        strawman1_overhead_bps=strawman1_bits / rtt_s,
    )


@dataclass(frozen=True)
class AckReductionSizing:
    """Per-n-packets quACK budget for ACK reduction."""

    every_n: int
    threshold: int
    quack_bytes: int
    strawman1_bytes: int
    bandwidth_saving_factor: float


def ack_reduction_sizing(every_n: int = 32,
                         threshold: int = 20) -> AckReductionSizing:
    """Quack every n packets, count omitted (it is always n).

    The paper's bandwidth claim holds exactly when ``t < n``: the quACK
    costs ``t*b`` bits where Strawman 1 costs ``n*b``.
    """
    quack_bits = threshold * PAPER_B  # count omitted
    strawman1_bits = every_n * PAPER_B
    return AckReductionSizing(
        every_n=every_n,
        threshold=threshold,
        quack_bytes=(quack_bits + 7) // 8,
        strawman1_bytes=(strawman1_bits + 7) // 8,
        bandwidth_saving_factor=strawman1_bits / quack_bits,
    )
