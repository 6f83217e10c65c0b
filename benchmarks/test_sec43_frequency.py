"""E5 / Section 4.3: selecting the communication frequency.

The paper's sizing envelopes, reproduced as code:

* CC division at 60 ms RTT, 200 Mbps, 2% loss, 1500 B packets ->
  ~1000 packets and 20 missing per RTT (exactly the n/t of Section 4.1);
* ACK reduction at one quACK per 32 packets with the count omitted ->
  t*b bits per quACK, less bandwidth than Strawman 1 whenever t < n;
* in-network retransmission -> cadence = target_missing / loss_ratio.
"""

import pytest

from repro.bench.frequency import (
    PAPER_TARGET_MISSING,
    ack_reduction_sizing,
    cc_division_sizing,
)
from repro.sidecar.frequency import retransmission_cadence


def test_cc_division_sizing_matches_paper(benchmark):
    sizing = benchmark(cc_division_sizing)
    assert sizing.packets_per_rtt == 1000
    assert sizing.expected_missing_per_rtt == 20
    assert sizing.quack_bytes == 82
    assert sizing.strawman1_bytes == 4000
    # quACK overhead: ~11 kbps on a 200 Mbps link -- negligible.
    assert sizing.quack_overhead_bps < 200e6 * 1e-4
    benchmark.extra_info["quack_overhead_bps"] = round(
        sizing.quack_overhead_bps)
    benchmark.extra_info["strawman1_overhead_bps"] = round(
        sizing.strawman1_overhead_bps)


def test_cc_division_sizing_scales_with_link(benchmark):
    def run():
        return cc_division_sizing(rtt_s=0.030, link_bps=100e6,
                                  loss_rate=0.01)

    sizing = benchmark(run)
    assert sizing.packets_per_rtt == 250
    assert sizing.expected_missing_per_rtt == 3
    assert sizing.quack_bytes == (3 * 32 + 16 + 7) // 8


def test_ack_reduction_sizing(benchmark):
    sizing = benchmark(ack_reduction_sizing)
    # t = 20 < n = 32: the quACK (80 B) beats Strawman 1 (128 B).
    assert sizing.quack_bytes == 80
    assert sizing.strawman1_bytes == 128
    assert sizing.bandwidth_saving_factor == pytest.approx(32 / 20)


def test_ack_reduction_requires_t_below_n(benchmark):
    sizing = benchmark(lambda: ack_reduction_sizing(every_n=16, threshold=20))
    # With t > n the strawman would win; the factor reflects that honestly.
    assert sizing.bandwidth_saving_factor < 1.0


@pytest.mark.parametrize("loss,expected", [
    (0.10, 200),    # 20 / 0.10
    (0.02, 512),    # clamped to max_every
    (0.50, 40),
    (0.0, 512),     # lossless: slowest cadence
])
def test_retransmission_cadence(benchmark, loss, expected):
    value = benchmark(
        lambda: retransmission_cadence(loss, PAPER_TARGET_MISSING))
    assert value == expected
    benchmark.extra_info["loss_ratio"] = loss
    benchmark.extra_info["packets_per_quack"] = value
