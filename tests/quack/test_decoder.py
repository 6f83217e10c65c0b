"""Tests for the quACK delta decoder (repro.quack.decoder)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    ArithmeticDomainError,
    InconsistentQuackError,
    ThresholdExceededError,
)
from repro.quack.base import DecodeStatus
from repro.quack.decoder import decode_delta
from repro.quack.power_sum import PowerSumQuack

P32 = 4_294_967_291


def make_delta(sent, received, threshold=10, bits=32):
    sender = PowerSumQuack(threshold, bits)
    receiver = PowerSumQuack(threshold, bits)
    sender.insert_many(sent)
    receiver.insert_many(received)
    return sender - receiver


class TestHappyPath:
    @pytest.mark.parametrize("method", ["candidates", "factor", "auto"])
    def test_recovers_missing(self, method):
        rng = random.Random(11)
        sent = [rng.getrandbits(32) for _ in range(200)]
        missing_idx = set(rng.sample(range(200), 7))
        received = [s for i, s in enumerate(sent) if i not in missing_idx]
        delta = make_delta(sent, received)
        result = decode_delta(delta, sent, method=method)
        assert result.ok
        assert sorted(result.missing) == sorted(sent[i] for i in missing_idx)
        assert result.num_missing == 7
        assert result.is_determinate

    def test_empty_difference(self):
        sent = [1, 2, 3]
        delta = make_delta(sent, sent)
        result = decode_delta(delta, sent)
        assert result.ok and result.missing == () and result.num_missing == 0

    def test_all_missing(self):
        sent = [10, 20, 30]
        delta = make_delta(sent, [])
        result = decode_delta(delta, sent)
        assert result.ok
        assert sorted(result.missing) == [10, 20, 30]

    @given(seed=st.integers(min_value=0, max_value=10_000),
           n=st.integers(min_value=1, max_value=60),
           m_frac=st.floats(min_value=0, max_value=1))
    @settings(max_examples=40, deadline=None)
    def test_methods_agree(self, seed, n, m_frac):
        rng = random.Random(seed)
        sent = [rng.getrandbits(32) for _ in range(n)]
        m = min(int(m_frac * n), 10)
        missing_idx = set(rng.sample(range(n), m))
        received = [s for i, s in enumerate(sent) if i not in missing_idx]
        delta = make_delta(sent, received)
        by_candidates = decode_delta(delta, sent, method="candidates")
        by_factor = decode_delta(delta, sent, method="factor")
        assert by_candidates == by_factor
        assert by_candidates.ok

    def test_multiset_partial_duplicates(self):
        sent = [7, 7, 7, 8, 9]
        received = [7, 8, 9]
        delta = make_delta(sent, received)
        result = decode_delta(delta, sent)
        assert result.ok
        assert list(result.missing) == [7, 7]

    @pytest.mark.parametrize("method", ["candidates", "factor"])
    @pytest.mark.parametrize("copies", [2, 3, 10])
    def test_repeated_identifier_missing(self, copies, method):
        """Multiplicity 2, 3 and all m = t copies of one identifier."""
        sent = [7] * copies + [8, 9]
        delta = make_delta(sent, [8, 9] if copies == 10 else [8])
        result = decode_delta(delta, sent, method=method)
        assert result.ok
        assert list(result.missing) == [7] * copies + [9] * (copies != 10)

    def test_repeated_root_at_zero_and_aliased_small_residue(self):
        # 0 and p alias residue 0; p + 1 aliases 1.  All of one group
        # missing is determinate whatever the multiplicity.
        sent = [0, P32, P32 + 1, 1, 12]
        delta = make_delta(sent, [12])
        result = decode_delta(delta, sent)
        assert result.ok and result.is_determinate
        assert list(result.missing) == [0, 1, P32, P32 + 1]

    def test_zero_identifier_missing(self):
        # Identifier 0 contributes nothing to the sums; only the count
        # reveals it.  The polynomial gains a root at 0.
        sent = [0, 5, 6]
        received = [5, 6]
        delta = make_delta(sent, received)
        result = decode_delta(delta, sent)
        assert result.ok
        assert list(result.missing) == [0]

    def test_aliased_identifier_decodes_to_log_value(self):
        # P32 + 4 is congruent to 4 mod p; the log holds the raw value and
        # the decoder must hand back the raw value.
        raw = P32 + 4
        sent = [raw, 10]
        delta = make_delta(sent, [10])
        result = decode_delta(delta, sent)
        assert result.ok
        assert list(result.missing) == [raw]


class TestCollisions:
    def test_full_collision_group_missing_is_determinate(self):
        # Two distinct raw ids congruent mod p, both missing.
        a, b = 4, P32 + 4
        sent = [a, b, 100]
        delta = make_delta(sent, [100])
        result = decode_delta(delta, sent)
        assert result.ok
        assert sorted(result.missing) == sorted([a, b])
        assert result.is_determinate

    def test_partial_collision_group_is_indeterminate(self):
        a, b = 4, P32 + 4  # same residue
        sent = [a, b, 100]
        delta = make_delta(sent, [a, 100])  # only b missing -- ambiguous
        result = decode_delta(delta, sent)
        assert result.ok
        assert result.missing == ()
        assert result.indeterminate == (((a, b), 1),)
        assert not result.is_determinate
        assert result.num_missing == 1

    def test_partial_collision_group_with_a_repeated_root(self):
        a, b = 4, P32 + 4
        sent = [a, b, b, 100]
        delta = make_delta(sent, [b, 100])  # two of the three are missing
        result = decode_delta(delta, sent)
        assert result.ok and result.missing == ()
        assert result.indeterminate == (((a, b), 2),)


class TestFailures:
    def test_threshold_exceeded(self):
        sent = list(range(1, 30))
        delta = make_delta(sent, sent[15:], threshold=5)
        result = decode_delta(delta, sent)
        assert result.status is DecodeStatus.THRESHOLD_EXCEEDED
        assert result.num_missing == 15

    def test_threshold_exceeded_raises(self):
        sent = list(range(1, 30))
        delta = make_delta(sent, sent[15:], threshold=5)
        with pytest.raises(ThresholdExceededError) as err:
            decode_delta(delta, sent, raise_on_failure=True)
        assert err.value.missing == 15 and err.value.threshold == 5

    def test_zero_count_nonzero_sums(self):
        delta = make_delta([1, 2], [1, 2])
        delta._sums[0] = 12345  # corrupt
        result = decode_delta(delta, [1, 2])
        assert result.status is DecodeStatus.INCONSISTENT
        with pytest.raises(InconsistentQuackError):
            decode_delta(delta, [1, 2], raise_on_failure=True)

    def test_missing_exceeds_log(self):
        sender = PowerSumQuack(10)
        receiver = PowerSumQuack(10)
        sender.insert_many([1, 2, 3, 4, 5])
        delta = sender - receiver
        result = decode_delta(delta, [1, 2])  # claims 5 missing of log 2
        assert result.status is DecodeStatus.INCONSISTENT

    def test_root_not_in_log(self):
        # Receiver saw a packet the sender never logged: sums subtract to
        # a polynomial whose root is absent from the log.
        sender = PowerSumQuack(5)
        receiver = PowerSumQuack(5)
        sender.insert_many([10, 20])
        receiver.insert(999)
        delta = sender - receiver
        result = decode_delta(delta, [10, 20])
        assert result.status is DecodeStatus.INCONSISTENT

    def test_unsolvable_polynomial(self):
        # A difference whose polynomial has no roots in the field at all.
        delta = PowerSumQuack(4, bits=8)  # p = 251
        delta._count = 2
        # Power sums of "x^2 + 1 = 0" ghosts: d1 = 0, d2 = -2 (sum of the
        # two imaginary roots' squares).  No element of GF(251) satisfies.
        delta._sums = [0, (251 - 2) % 251, 0, 0]
        result = decode_delta(delta, list(range(1, 100)))
        assert result.status is DecodeStatus.INCONSISTENT

    def test_unknown_method(self):
        delta = make_delta([1], [1])
        with pytest.raises(ArithmeticDomainError):
            decode_delta(delta, [1], method="quantum")


class TestAutoMethod:
    def test_auto_uses_candidates_for_small_logs(self):
        # Behavioral check: both must agree anyway, so assert decode works
        # at the boundary sizes.
        rng = random.Random(5)
        sent = [rng.getrandbits(32) for _ in range(100)]
        delta = make_delta(sent, sent[1:])
        assert decode_delta(delta, sent, method="auto").ok
