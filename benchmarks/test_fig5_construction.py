"""E2 / Figure 5: construction time vs threshold t, per identifier width.

The paper's claim: "the construction time is directly proportional to t,
as it uses one modular multiplication and addition ... for each power sum
determined by t", with the bit width b selecting the arithmetic backend.
Each benchmark is one (b, t) point of the figure; the proportionality
check itself lives in test_linearity_in_threshold.
"""

import pytest

from repro.bench.tables import fig5_series
from repro.bench.workloads import make_workload
from repro.quack.power_sum import PowerSumQuack

THRESHOLDS = (10, 20, 30, 40, 50)
BIT_WIDTHS = (16, 24, 32)


@pytest.mark.parametrize("bits", BIT_WIDTHS)
@pytest.mark.parametrize("threshold", THRESHOLDS)
def test_construction_point(benchmark, bits, threshold):
    """One point of Figure 5: build a quACK over n=1000 identifiers."""
    workload = make_workload(n=1000, num_missing=0, bits=bits, seed=0)
    identifiers = workload.sent.tolist()

    def build():
        quack = PowerSumQuack(threshold=threshold, bits=bits)
        for identifier in identifiers:
            quack.insert(identifier)
        quack.power_sums    # the read completes the fold insert defers
        return quack

    benchmark(build)
    benchmark.extra_info["figure"] = "5"
    benchmark.extra_info["bits"] = bits
    benchmark.extra_info["threshold"] = threshold


def test_linearity_in_threshold(benchmark):
    """Figure 5's shape: time grows ~linearly with t.

    Fit the measured curve for b=32 and require strong positive
    correlation with t plus a roughly proportional slope (t=50 should
    cost 3-7x t=10; exact 5x would be perfect proportionality).
    """
    def run():
        return fig5_series(thresholds=(10, 30, 50), bits_options=(32,),
                           n=400, trials=9, stat="median")

    series = benchmark.pedantic(run, rounds=1, iterations=1)
    curve = series[32]
    assert curve[10] < curve[30] < curve[50]
    ratio = curve[50] / curve[10]
    assert 2.5 < ratio < 8.0
    benchmark.extra_info["t10_us"] = round(curve[10], 1)
    benchmark.extra_info["t30_us"] = round(curve[30], 1)
    benchmark.extra_info["t50_us"] = round(curve[50], 1)
    benchmark.extra_info["t50_over_t10"] = round(ratio, 2)


def test_amortized_per_packet_cost(benchmark):
    """Section 4.2: construction is amortized to ~constant work per packet
    (the paper reports ~100 ns/packet in C++)."""
    workload = make_workload(n=1000, num_missing=0, bits=32, seed=0)
    identifiers = workload.sent.tolist()
    quack = PowerSumQuack(threshold=20, bits=32)
    index = [0]

    def insert_one():
        quack.insert(identifiers[index[0] % 1000])
        index[0] += 1

    benchmark(insert_one)
    benchmark.extra_info["paper_ns_per_packet"] = 100
