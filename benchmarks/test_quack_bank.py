"""E12 (extension): toward nearly-zero-overhead quACKing.

Section 5: "How do we further optimize the algorithm and implementation
of the quACK towards nearly-zero overhead quACKing?"  This bench
measures the vectorized multi-flow :class:`~repro.quack.bank.QuackBank`
against a dict of per-flow PowerSumQuack objects at a busy-proxy
workload: a mixed packet batch across many concurrent flows.

Expected shape: per-packet cost of the bank is far below the per-flow
objects' interpreted loop, and it *improves* with batch size.
"""

import random

import numpy as np
import pytest

from repro.quack.bank import QuackBank
from repro.quack.power_sum import PowerSumQuack

FLOWS = 64
THRESHOLD = 20
BATCH = 4096


@pytest.fixture(scope="module")
def mixed_batch():
    rng = random.Random(9)
    flows = np.array([rng.randrange(FLOWS) for _ in range(BATCH)],
                     dtype=np.int64)
    ids = np.array([rng.getrandbits(32) for _ in range(BATCH)],
                   dtype=np.uint64)
    return flows, ids


def test_per_flow_objects_baseline(benchmark, mixed_batch):
    flows, ids = mixed_batch
    flow_list = flows.tolist()
    id_list = ids.tolist()

    def run():
        quacks = [PowerSumQuack(THRESHOLD) for _ in range(FLOWS)]
        for flow, identifier in zip(flow_list, id_list):
            quacks[flow].insert(identifier)
        for quack in quacks:    # the read completes the fold insert defers
            quack.power_sums
        return quacks

    benchmark(run)
    benchmark.extra_info["packets"] = BATCH
    benchmark.extra_info["flows"] = FLOWS


def test_bank_batched(benchmark, mixed_batch):
    flows, ids = mixed_batch

    def run():
        bank = QuackBank(FLOWS, THRESHOLD)
        bank.observe_batch(flows, ids)
        return bank

    benchmark(run)
    benchmark.extra_info["packets"] = BATCH
    benchmark.extra_info["flows"] = FLOWS


def test_bank_scalar_observe(benchmark, mixed_batch):
    """The unbatched path: one direct scalar update per packet.

    Before the scalar fast path this allocated two 1-element numpy
    arrays per packet and paid the full vectorized setup at batch size
    one -- an order of magnitude slower than this.
    """
    flows, ids = mixed_batch
    flow_list = flows.tolist()[:512]
    id_list = ids.tolist()[:512]

    def run():
        bank = QuackBank(FLOWS, THRESHOLD)
        for flow, identifier in zip(flow_list, id_list):
            bank.observe(flow, identifier)
        return bank

    benchmark(run)
    benchmark.extra_info["packets"] = len(flow_list)
    benchmark.extra_info["flows"] = FLOWS


def test_bank_speedup_and_equivalence(benchmark, mixed_batch):
    """The headline number: batched ns/packet vs interpreted ns/packet."""
    from repro.bench.timing import measure

    flows, ids = mixed_batch
    flow_list = flows.tolist()
    id_list = ids.tolist()

    def per_flow():
        quacks = [PowerSumQuack(THRESHOLD) for _ in range(FLOWS)]
        for flow, identifier in zip(flow_list, id_list):
            quacks[flow].insert(identifier)
        for quack in quacks:    # the read completes the fold insert defers
            quack.power_sums
        return quacks

    def banked():
        bank = QuackBank(FLOWS, THRESHOLD)
        bank.observe_batch(flows, ids)
        return bank

    def compare():
        baseline = measure(per_flow, trials=3, warmup=1).mean
        vectorized = measure(banked, trials=3, warmup=1).mean
        return baseline, vectorized

    baseline, vectorized = benchmark.pedantic(compare, rounds=1, iterations=1)
    speedup = baseline / vectorized
    benchmark.extra_info["per_flow_ns_per_packet"] = round(
        baseline / BATCH * 1e9)
    benchmark.extra_info["bank_ns_per_packet"] = round(
        vectorized / BATCH * 1e9)
    benchmark.extra_info["speedup"] = round(speedup, 1)
    assert speedup > 3.0

    # And the states agree exactly.
    quacks = per_flow()
    bank = banked()
    for flow in range(FLOWS):
        assert bank.snapshot(flow) == quacks[flow]
