"""E6: the four headline metrics from the paper's introduction.

"For n = 1000 sent packets and up to t = 20 missing packets, we implement
a quACK with the following metrics:
  (1) 82 bytes transmitted from the receiver to the sender,
  (2) ~100 ns additional processing time per packet,
  (3) <100 us decoding time from quACK and list of candidate packets,
  (4) 0.000023% chance that a candidate packet has an indeterminate
      result."

(1) and (4) are analytic and must match exactly; (2) and (3) are C++
numbers we reproduce in shape (per-packet cost constant in n; decode cost
bounded by the t=20 point) and report alongside.
"""

import pytest

from repro.bench.timing import measure
from repro.bench.workloads import make_workload
from repro.quack.collision import collision_probability
from repro.quack.power_sum import PowerSumQuack


def test_metric1_quack_size_82_bytes(benchmark):
    quack = PowerSumQuack(threshold=20, bits=32, count_bits=16)
    bits = benchmark(quack.wire_size_bits)
    assert bits == 656 and bits // 8 == 82


def test_metric2_per_packet_cost_constant_in_n(benchmark):
    """The amortized insert must not depend on how many packets came
    before -- that is what makes it a per-packet constant."""
    workload = make_workload(n=4000, num_missing=0, bits=32, seed=0)
    identifiers = workload.sent.tolist()

    quack = PowerSumQuack(threshold=20, bits=32)

    # Each half ends with the read that completes the fold ``insert``
    # defers past its first BATCH_CROSSOVER identifiers.
    def insert_first_1000():
        for identifier in identifiers[:1000]:
            quack.insert(identifier)
        quack.power_sums

    def insert_next_1000():
        for identifier in identifiers[1000:2000]:
            quack.insert(identifier)
        quack.power_sums

    early = measure(insert_first_1000, trials=3, warmup=1)
    late = measure(insert_next_1000, trials=3, warmup=1)
    # Identical work regardless of accumulated state (within noise).
    assert late.mean < early.mean * 2.5

    single = benchmark(lambda: quack.insert(identifiers[0]))
    benchmark.extra_info["paper_ns_per_packet"] = 100


def test_metric3_decode_under_bound(benchmark, paper_workload):
    quack = PowerSumQuack(threshold=20, bits=32)
    quack.insert_many(paper_workload.received)
    log = paper_workload.sent.tolist()

    result = benchmark(lambda: quack.decode(log))
    assert result.ok and result.num_missing == 20
    benchmark.extra_info["paper_upper_us"] = 100
    # CPython is slower than the paper's 100 us C++ bound; we assert a
    # Python-scale sanity bound instead and report the ratio.  Timed
    # apart from ``benchmark``, whose stats are absent under
    # ``--benchmark-disable``.
    timing = measure(lambda: quack.decode(log), trials=5, warmup=1)
    assert timing.mean < 0.1  # < 100 ms


def test_metric4_indeterminate_rate(benchmark):
    value = benchmark(lambda: collision_probability(1000, 32))
    assert value == pytest.approx(2.3e-7, rel=0.05)
