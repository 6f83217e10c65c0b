"""E10c / extension X1: power-sum quACK vs IBLT quACK.

The straggler-identification paper behind the quACK offers two data
structures; the sidecar paper picks power sums.  This ablation measures
why that is the right call for the wire (size) and where the IBLT wins
(decode cost independent of n and m), answering the Section 5 question
"what similar protocol-agnostic digests could we design?" with numbers.
"""

import pytest

from repro.bench.workloads import make_workload
from repro.ids.identifiers import sample_unique_identifiers
from repro.quack.iblt import IbltQuack
from repro.quack.power_sum import PowerSumQuack

import random

THRESHOLD = 20


@pytest.fixture(scope="module")
def distinct_workload():
    """1000 *distinct* identifiers (the IBLT's supported regime)."""
    ids = sample_unique_identifiers(1000, bits=32, rng=random.Random(0))
    sent = [int(x) for x in ids]
    missing = sent[:THRESHOLD]
    received = sent[THRESHOLD:]
    return sent, received, missing


def test_power_sum_construction(benchmark, distinct_workload):
    _, received, _ = distinct_workload

    def build():
        quack = PowerSumQuack(THRESHOLD, bits=32)
        for identifier in received:
            quack.insert(identifier)
        return quack

    quack = benchmark(build)
    benchmark.extra_info["wire_bytes"] = quack.wire_size_bits() // 8


def test_iblt_construction(benchmark, distinct_workload):
    _, received, _ = distinct_workload

    def build():
        quack = IbltQuack(THRESHOLD, bits=32)
        for identifier in received:
            quack.insert(identifier)
        return quack

    quack = benchmark(build)
    benchmark.extra_info["wire_bytes"] = quack.wire_size_bits() // 8


def test_power_sum_decode(benchmark, distinct_workload):
    sent, received, missing = distinct_workload
    quack = PowerSumQuack(THRESHOLD, bits=32)
    quack.insert_many(received)
    result = benchmark(lambda: quack.decode(sent))
    assert sorted(result.missing) == sorted(missing)


def test_iblt_decode(benchmark, distinct_workload):
    sent, received, missing = distinct_workload
    quack = IbltQuack(THRESHOLD, bits=32)
    quack.insert_many(received)
    result = benchmark(lambda: quack.decode(sent))
    assert result.ok
    assert sorted(result.missing) == sorted(missing)


def test_wire_size_comparison(benchmark):
    """The reason the paper chose power sums: bytes on the wire."""
    def sizes():
        power = PowerSumQuack(THRESHOLD, bits=32)
        iblt = IbltQuack(THRESHOLD, bits=32)
        return power.wire_size_bits(), iblt.wire_size_bits()

    power_bits, iblt_bits = benchmark(sizes)
    assert power_bits == 656
    assert iblt_bits > 3 * power_bits  # the IBLT pays heavily in size
    benchmark.extra_info["power_sum_bytes"] = power_bits // 8
    benchmark.extra_info["iblt_bytes"] = iblt_bits // 8


def test_iblt_multiset_limitation(benchmark):
    """Duplicates are power sums' edge: the IBLT must refuse them."""
    def run():
        receiver = IbltQuack(8)
        receiver.insert(7)
        return receiver.decode([42, 42, 7])

    result = benchmark(run)
    assert not result.ok  # reported, never silently wrong
