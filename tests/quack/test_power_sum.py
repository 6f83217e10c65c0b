"""Tests for the power-sum quACK accumulator (repro.quack.power_sum)."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arith.field import field_for_bits
from repro.errors import ArithmeticDomainError
from repro.quack.base import DecodeStatus
from repro.quack.power_sum import BATCH_CROSSOVER, PowerSumQuack

P32 = 4_294_967_291

ids32 = st.integers(min_value=0, max_value=2 ** 32 - 1)


class TestConstruction:
    def test_defaults(self):
        q = PowerSumQuack(threshold=20)
        assert q.threshold == 20
        assert q.bits == 32
        assert q.count_bits == 16
        assert q.count == 0
        assert q.power_sums == (0,) * 20
        assert q.field.modulus == P32

    def test_wire_size_matches_paper(self):
        # Table 2: t*b + c = 20*32 + 16 = 656 bits = 82 bytes.
        q = PowerSumQuack(threshold=20, bits=32, count_bits=16)
        assert q.wire_size_bits() == 656
        assert q.wire_size_bits() // 8 == 82

    def test_invalid_threshold(self):
        with pytest.raises(ArithmeticDomainError):
            PowerSumQuack(threshold=0)

    def test_count_bits_must_cover_threshold(self):
        with pytest.raises(ArithmeticDomainError):
            PowerSumQuack(threshold=16, count_bits=4)  # 2**4 == 16 <= t
        PowerSumQuack(threshold=15, count_bits=4)  # 16 > 15: fine

    def test_explicit_field(self):
        field = field_for_bits(16)
        q = PowerSumQuack(threshold=4, bits=16, field=field)
        assert q.field is field

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(PowerSumQuack(2))


class TestInsertRemove:
    def test_insert_updates_all_power_sums(self):
        q = PowerSumQuack(threshold=3)
        q.insert(5)
        assert q.power_sums == (5, 25, 125)
        assert q.count == 1
        q.insert(2)
        assert q.power_sums == (7, 29, 133)
        assert q.count == 2

    def test_identifier_reduced_mod_p(self):
        q = PowerSumQuack(threshold=2)
        q.insert(P32 + 9)
        assert q.power_sums == (9, 81)

    def test_remove_inverts_insert(self):
        q = PowerSumQuack(threshold=4)
        q.insert(123)
        q.insert(456)
        q.remove(123)
        other = PowerSumQuack(threshold=4)
        other.insert(456)
        assert q == other

    def test_remove_wraps_count(self):
        q = PowerSumQuack(threshold=2, count_bits=8)
        q.remove(7)
        assert q.count == 255

    @given(values=st.lists(ids32, min_size=0, max_size=60))
    @settings(max_examples=50)
    def test_insert_many_equals_loop(self, values):
        loop = PowerSumQuack(threshold=5)
        for v in values:
            loop.insert(v)
        bulk = PowerSumQuack(threshold=5)
        bulk.insert_many(values)
        assert loop == bulk

    @pytest.mark.parametrize("size", [0, 1, 15, 16, 17, 1000])
    @pytest.mark.parametrize("bits", [32, 64])
    def test_insert_many_equals_loop_on_both_sides_of_the_crossover(
            self, size, bits):
        """The scalar loop below ``BATCH_CROSSOVER``, numpy from there
        on: same sums and same wrapped count, whatever the input is --
        identifiers at and past ``p`` and past ``2**63`` included."""
        assert BATCH_CROSSOVER == 16
        rng = random.Random(size)
        p = field_for_bits(bits).modulus
        edge = [p, p + 1, 2 ** bits - 1, 2 ** (bits - 1), 0]
        values = (edge + [rng.getrandbits(bits) for _ in range(size)])[:size]
        loop = PowerSumQuack(threshold=5, bits=bits, count_bits=9)
        for value in values:
            loop.insert(value)
        assert loop.count == size % 512        # 1,000 wraps the count
        for shape in (list, tuple, iter, lambda v: (x for x in v),
                      lambda v: np.array(v, dtype=np.uint64)):
            bulk = PowerSumQuack(threshold=5, bits=bits, count_bits=9)
            bulk.insert_many(shape(values))
            assert bulk == loop

    def test_insert_many_accepts_numpy(self):
        q = PowerSumQuack(threshold=3)
        q.insert_many(np.array([1, 2, 3], dtype=np.uint64))
        assert q.count == 3

    def test_insert_many_empty(self):
        q = PowerSumQuack(threshold=3)
        q.insert_many([])
        assert q.count == 0 and q.power_sums == (0, 0, 0)

    def test_count_wraps(self):
        q = PowerSumQuack(threshold=2, count_bits=4)
        for i in range(20):
            q.insert(i + 1)
        assert q.count == 20 % 16

    def test_order_independence(self):
        a = PowerSumQuack(threshold=4)
        b = PowerSumQuack(threshold=4)
        values = [9, 1, 77, 77, 3]
        for v in values:
            a.insert(v)
        for v in reversed(values):
            b.insert(v)
        assert a == b


class TestCopyAndEquality:
    def test_copy_is_independent(self):
        q = PowerSumQuack(threshold=2)
        q.insert(5)
        clone = q.copy()
        clone.insert(6)
        assert q.count == 1 and clone.count == 2
        assert q != clone

    def test_equality_requires_same_parameters(self):
        a = PowerSumQuack(threshold=2)
        b = PowerSumQuack(threshold=3)
        assert a != b
        assert a != object()


class TestSubtraction:
    def test_difference_is_missing_multiset_sums(self):
        sender = PowerSumQuack(threshold=4)
        receiver = PowerSumQuack(threshold=4)
        for v in (10, 20, 30, 40):
            sender.insert(v)
        for v in (10, 30):
            receiver.insert(v)
        delta = sender - receiver
        expect = PowerSumQuack(threshold=4)
        expect.insert(20)
        expect.insert(40)
        assert delta.power_sums == expect.power_sums
        assert delta.count == 2

    def test_count_difference_wraps(self):
        sender = PowerSumQuack(threshold=2, count_bits=4)
        receiver = PowerSumQuack(threshold=2, count_bits=4)
        for i in range(17):  # sender count wraps to 1
            sender.insert(i + 1)
        for i in range(15):
            receiver.insert(i + 1)
        delta = sender - receiver
        assert delta.count == 2

    def test_mismatched_parameters_rejected(self):
        with pytest.raises(ArithmeticDomainError):
            PowerSumQuack(threshold=2) - PowerSumQuack(threshold=3)
        with pytest.raises(ArithmeticDomainError):
            PowerSumQuack(threshold=2, bits=16) - PowerSumQuack(threshold=2)

    def test_non_quack_rejected(self):
        with pytest.raises(ArithmeticDomainError):
            PowerSumQuack(threshold=2) - 42  # type: ignore[operator]

    def test_dropped_quack_resilience(self):
        """Section 3.3: subtracting a *later* receiver snapshot still
        decodes, because the state is cumulative."""
        rng = random.Random(3)
        sent = [rng.getrandbits(32) for _ in range(50)]
        sender = PowerSumQuack(threshold=10)
        receiver = PowerSumQuack(threshold=10)
        sender.insert_many(sent)
        # First snapshot is "dropped" (never consumed); receiver keeps going.
        receiver.insert_many(sent[:20])
        _dropped = receiver.copy()
        receiver.insert_many(sent[20:45])  # 5 remain missing
        delta = sender - receiver
        assert delta.count == 5


class TestOneShotDecode:
    def test_simple_decode(self):
        rng = random.Random(1)
        sent = [rng.getrandbits(32) for _ in range(100)]
        missing = sent[10:15]
        receiver = PowerSumQuack(threshold=8)
        receiver.insert_many([s for i, s in enumerate(sent)
                              if not 10 <= i < 15])
        result = receiver.decode(sent)
        assert result.ok
        assert sorted(result.missing) == sorted(missing)

    def test_nothing_missing(self):
        sent = [5, 6, 7]
        receiver = PowerSumQuack(threshold=2)
        receiver.insert_many(sent)
        result = receiver.decode(sent)
        assert result.ok and result.missing == ()

    def test_exactly_threshold_missing_decodes(self):
        rng = random.Random(2)
        sent = [rng.getrandbits(32) for _ in range(40)]
        receiver = PowerSumQuack(threshold=6)
        receiver.insert_many(sent[6:])
        result = receiver.decode(sent)
        assert result.ok
        assert sorted(result.missing) == sorted(sent[:6])

    def test_threshold_plus_one_fails(self):
        rng = random.Random(2)
        sent = [rng.getrandbits(32) for _ in range(40)]
        receiver = PowerSumQuack(threshold=6)
        receiver.insert_many(sent[7:])
        result = receiver.decode(sent)
        assert result.status is DecodeStatus.THRESHOLD_EXCEEDED
        assert result.num_missing == 7

    def test_duplicate_identifiers_in_multiset(self):
        sent = [42, 42, 42, 99]
        receiver = PowerSumQuack(threshold=3)
        receiver.insert_many([42, 99])  # two copies of 42 missing
        result = receiver.decode(sent)
        assert result.ok
        assert list(result.missing) == [42, 42]
