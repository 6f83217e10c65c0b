"""Tests for the IBLT-based quACK extension (repro.quack.iblt)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ArithmeticDomainError
from repro.quack.base import DecodeStatus
from repro.quack.iblt import IbltQuack


def distinct_ids(rng, n):
    out = set()
    while len(out) < n:
        out.add(rng.getrandbits(32))
    return list(out)


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ArithmeticDomainError):
            IbltQuack(0)
        with pytest.raises(ArithmeticDomainError):
            IbltQuack(10, hash_count=1)

    def test_count_tracks_inserts_and_removes(self):
        quack = IbltQuack(8)
        quack.insert(5)
        quack.insert(6)
        quack.remove(5)
        assert quack.count == 1

    def test_remove_inverts_insert_exactly(self):
        quack = IbltQuack(8)
        quack.insert(123456)
        quack.remove(123456)
        assert all(cell.is_empty() for cell in quack.cells)

    def test_copy_is_independent(self):
        quack = IbltQuack(8)
        quack.insert(1)
        clone = quack.copy()
        clone.insert(2)
        assert quack.count == 1 and clone.count == 2

    def test_wire_size_larger_than_power_sum(self):
        from repro.quack.power_sum import PowerSumQuack
        iblt = IbltQuack(20, bits=32)
        power = PowerSumQuack(20, bits=32)
        assert iblt.wire_size_bits() > 2 * power.wire_size_bits()

    def test_incompatible_subtraction_rejected(self):
        with pytest.raises(ArithmeticDomainError):
            IbltQuack(8) - IbltQuack(16)
        with pytest.raises(ArithmeticDomainError):
            IbltQuack(8) - IbltQuack(8, salt=b"other")


class TestPeeling:
    def test_simple_difference(self):
        rng = random.Random(1)
        ids = distinct_ids(rng, 50)
        receiver = IbltQuack(10)
        receiver.insert_many(ids[5:])
        result = receiver.decode(ids)
        assert result.ok
        assert sorted(result.missing) == sorted(ids[:5])

    def test_empty_difference(self):
        rng = random.Random(2)
        ids = distinct_ids(rng, 30)
        receiver = IbltQuack(10)
        receiver.insert_many(ids)
        result = receiver.decode(ids)
        assert result.ok and result.missing == ()

    def test_peel_reports_negatives(self):
        receiver = IbltQuack(10)
        receiver.insert(999)  # receiver saw something never sent
        sender = IbltQuack(10)
        sender.insert(111)
        delta = sender - receiver
        positives, negatives, complete = delta.peel()
        assert complete
        assert positives == [111]
        assert negatives == [999]

    def test_decode_flags_unsent_receipts_as_inconsistent(self):
        receiver = IbltQuack(10)
        receiver.insert(999)
        result = receiver.decode([111])
        assert result.status is DecodeStatus.INCONSISTENT

    def test_overload_is_reported_not_wrong(self):
        """Way past capacity, peeling stalls -- and says so."""
        rng = random.Random(3)
        ids = distinct_ids(rng, 400)
        receiver = IbltQuack(4)  # tiny capacity
        receiver.insert_many(ids[200:])
        result = receiver.decode(ids)  # 200 missing >> 4
        assert result.status is DecodeStatus.INCONSISTENT

    def test_duplicates_in_difference_fail_loudly(self):
        """The IBLT's documented multiset limitation."""
        receiver = IbltQuack(8)
        sent = [42, 42, 7]  # identifier 42 sent twice, both missing
        receiver.insert(7)
        result = receiver.decode(sent)
        assert result.status is DecodeStatus.INCONSISTENT

    @given(seed=st.integers(min_value=0, max_value=10 ** 9),
           missing=st.integers(min_value=0, max_value=20))
    @settings(max_examples=40, deadline=None)
    def test_random_sets_within_capacity(self, seed, missing):
        rng = random.Random(seed)
        ids = distinct_ids(rng, 200)
        receiver = IbltQuack(20)
        receiver.insert_many(ids[missing:])
        result = receiver.decode(ids)
        if result.ok:  # peeling succeeds w.h.p.; never silently wrong
            assert sorted(result.missing) == sorted(ids[:missing])
        else:
            assert result.status is DecodeStatus.INCONSISTENT

    def test_success_rate_at_capacity(self):
        """At the design threshold, peeling should almost always work."""
        successes = 0
        trials = 50
        for seed in range(trials):
            rng = random.Random(seed)
            ids = distinct_ids(rng, 100)
            receiver = IbltQuack(20)
            receiver.insert_many(ids[20:])
            if receiver.decode(ids).ok:
                successes += 1
        assert successes >= trials * 0.9


class TestAgainstPowerSums:
    @given(seed=st.integers(min_value=0, max_value=10 ** 9))
    @settings(max_examples=25, deadline=None)
    def test_agreement_on_distinct_identifier_sets(self, seed):
        from repro.quack.power_sum import PowerSumQuack
        rng = random.Random(seed)
        ids = distinct_ids(rng, 80)
        m = rng.randrange(10)
        iblt = IbltQuack(16)
        power = PowerSumQuack(16)
        iblt.insert_many(ids[m:])
        power.insert_many(ids[m:])
        iblt_result = iblt.decode(ids)
        power_result = power.decode(ids)
        assert power_result.ok
        if iblt_result.ok:
            assert iblt_result.missing == power_result.missing
