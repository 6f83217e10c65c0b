"""Tests for the vectorized multi-flow QuackBank."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ArithmeticDomainError
from repro.quack.bank import QuackBank
from repro.quack.power_sum import PowerSumQuack


class TestValidation:
    def test_bad_parameters(self):
        with pytest.raises(ArithmeticDomainError):
            QuackBank(0, 4)
        with pytest.raises(ArithmeticDomainError):
            QuackBank(4, 0)
        with pytest.raises(ArithmeticDomainError):
            QuackBank(4, 4, bits=64)

    def test_mismatched_batch_shapes(self):
        bank = QuackBank(2, 4)
        with pytest.raises(ArithmeticDomainError):
            bank.observe_batch([0, 1], [5])

    def test_flow_out_of_range(self):
        bank = QuackBank(2, 4)
        with pytest.raises(ArithmeticDomainError):
            bank.observe(2, 5)
        with pytest.raises(ArithmeticDomainError):
            bank.observe(-1, 5)

    def test_empty_batch_noop(self):
        bank = QuackBank(2, 4)
        bank.observe_batch([], [])
        assert bank.count(0) == 0


class TestScalarPathDifferential:
    """The direct scalar ``observe`` must track ``observe_batch`` exactly."""

    @given(observations=st.lists(
        st.tuples(st.integers(min_value=0, max_value=3),
                  st.integers(min_value=0, max_value=2 ** 32 - 1)),
        max_size=120))
    @settings(max_examples=40, deadline=None)
    def test_scalar_matches_batch(self, observations):
        scalar = QuackBank(4, threshold=6)
        batched = QuackBank(4, threshold=6)
        for flow, identifier in observations:
            scalar.observe(flow, identifier)
        if observations:
            batched.observe_batch(
                np.array([flow for flow, _ in observations]),
                np.array([ident for _, ident in observations],
                         dtype=np.uint64))
        for flow in range(4):
            assert scalar.power_sums(flow) == batched.power_sums(flow)
            assert scalar.count(flow) == batched.count(flow)

    def test_scalar_matches_batch_at_count_wrap(self):
        scalar = QuackBank(1, threshold=3, count_bits=4)
        batched = QuackBank(1, threshold=3, count_bits=4)
        rng = random.Random(99)
        ids = [rng.getrandbits(32) for _ in range(20)]  # wraps the 4-bit count
        for identifier in ids:
            scalar.observe(0, identifier)
        batched.observe_batch(np.zeros(20, dtype=np.int64),
                              np.array(ids, dtype=np.uint64))
        assert scalar.count(0) == batched.count(0) == 20 % 16
        assert scalar.power_sums(0) == batched.power_sums(0)

    def test_scalar_accepts_aliased_identifiers(self):
        # Identifiers in [p, 2**bits) reduce mod p on both paths.
        scalar = QuackBank(1, threshold=2, bits=16)
        batched = QuackBank(1, threshold=2, bits=16)
        top = (1 << 16) - 1
        scalar.observe(0, top)
        batched.observe_batch([0], [top])
        assert scalar.power_sums(0) == batched.power_sums(0)


class TestEquivalence:
    @given(observations=st.lists(
        st.tuples(st.integers(min_value=0, max_value=3),
                  st.integers(min_value=0, max_value=2 ** 32 - 1)),
        max_size=80))
    @settings(max_examples=40, deadline=None)
    def test_matches_per_flow_quacks(self, observations):
        bank = QuackBank(4, threshold=5)
        references = [PowerSumQuack(5) for _ in range(4)]
        if observations:
            flows, ids = zip(*observations)
            bank.observe_batch(list(flows), list(ids))
            for flow, identifier in observations:
                references[flow].insert(identifier)
        for flow in range(4):
            assert bank.power_sums(flow) == references[flow].power_sums
            assert bank.count(flow) == references[flow].count
            assert bank.snapshot(flow) == references[flow]

    def test_incremental_batches_compose(self):
        bank = QuackBank(2, threshold=4)
        bank.observe_batch([0, 1, 0], [10, 20, 30])
        bank.observe_batch([1, 0], [40, 50])
        reference = PowerSumQuack(4)
        for v in (10, 30, 50):
            reference.insert(v)
        assert bank.snapshot(0) == reference

    def test_duplicate_flow_in_one_batch(self):
        bank = QuackBank(1, threshold=3)
        bank.observe_batch([0, 0, 0], [7, 7, 9])
        reference = PowerSumQuack(3)
        reference.insert_many([7, 7, 9])
        assert bank.snapshot(0) == reference


class TestDecodePath:
    def test_snapshot_decodes_against_log(self):
        rng = random.Random(3)
        sent = [rng.getrandbits(32) for _ in range(100)]
        bank = QuackBank(8, threshold=6)
        # Flow 5 receives everything except three packets.
        missing = set(rng.sample(range(100), 3))
        received = [v for i, v in enumerate(sent) if i not in missing]
        bank.observe_batch([5] * len(received), received)
        result = bank.snapshot(5).decode(sent)
        assert result.ok
        assert sorted(result.missing) == sorted(sent[i] for i in missing)

    def test_flows_isolated(self):
        bank = QuackBank(3, threshold=4)
        bank.observe_batch([0, 1, 2], [100, 200, 300])
        assert bank.count(0) == bank.count(1) == bank.count(2) == 1
        assert bank.power_sums(0) != bank.power_sums(1)

    def test_count_wraps(self):
        bank = QuackBank(1, threshold=2, count_bits=4)
        bank.observe_batch([0] * 20, list(range(1, 21)))
        assert bank.count(0) == 20 % 16

    def test_numpy_inputs(self):
        bank = QuackBank(2, threshold=3)
        bank.observe_batch(np.array([0, 1]), np.array([9, 9],
                                                      dtype=np.uint64))
        assert bank.count(0) == 1

    def test_len_and_repr(self):
        bank = QuackBank(7, threshold=3)
        assert len(bank) == 7
        assert "7 flows" in repr(bank)
