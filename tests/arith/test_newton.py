"""Tests for Newton's identities (repro.arith.newton)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arith.field import PrimeField, field_for_bits
from repro.arith.newton import (
    elementary_to_power_sums,
    polynomial_from_power_sums,
    power_sums_to_elementary,
)
from repro.errors import ArithmeticDomainError

P = 4_294_967_291
F = PrimeField(P)


def brute_power_sums(values, k, p=P):
    return [sum(pow(v % p, i, p) for v in values) % p for i in range(1, k + 1)]


def brute_elementary(values, p=P):
    """e_1..e_m via the recurrence e'(S + {v}) = e(S) + v * shift(e(S))."""
    out = [1]
    for v in values:
        out = out + [0]
        for i in range(len(out) - 1, 0, -1):
            out[i] = (out[i] + v * out[i - 1]) % p
    return out[1:]


class TestPowerSumsToElementary:
    @given(values=st.lists(st.integers(min_value=0, max_value=P - 1),
                           min_size=0, max_size=8))
    @settings(max_examples=60)
    def test_matches_direct_expansion(self, values):
        m = len(values)
        d = brute_power_sums(values, m)
        e = power_sums_to_elementary(F, d)
        assert e == brute_elementary(values)

    def test_empty(self):
        assert power_sums_to_elementary(F, []) == []

    def test_single_element(self):
        assert power_sums_to_elementary(F, [42]) == [42]

    def test_two_elements(self):
        # {3, 5}: d1 = 8, d2 = 34; e1 = 8, e2 = 15.
        d = brute_power_sums([3, 5], 2)
        assert power_sums_to_elementary(F, d) == [8, 15]

    def test_m_not_below_p_rejected(self):
        tiny = PrimeField(5)
        with pytest.raises(ArithmeticDomainError):
            power_sums_to_elementary(tiny, [1, 2, 3, 4, 0])


class TestRoundTrip:
    @given(values=st.lists(st.integers(min_value=0, max_value=P - 1),
                           min_size=0, max_size=8),
           extra=st.integers(min_value=0, max_value=3))
    @settings(max_examples=60)
    def test_elementary_to_power_sums_inverts(self, values, extra):
        m = len(values)
        e = brute_elementary(values)
        d = elementary_to_power_sums(F, e, num_sums=m + extra)
        assert d == brute_power_sums(values, m + extra)

    @pytest.mark.parametrize("bits", [32, 64])
    def test_round_trip_for_every_m_up_to_the_threshold(self, bits):
        """Forward then inverse is the identity for each m in 1..t=20,
        on the uint64-vectorized field and on the exact 64-bit one."""
        field = field_for_bits(bits)
        rng = random.Random(bits)
        for m in range(1, 21):
            d = [rng.randrange(field.modulus) for _ in range(m)]
            e = power_sums_to_elementary(field, d)
            assert all(0 <= x < field.modulus for x in e)
            assert elementary_to_power_sums(field, e) == d
            values = [rng.getrandbits(bits) for _ in range(m)]
            sums = brute_power_sums(values, m, field.modulus)
            assert power_sums_to_elementary(field, sums) \
                == brute_elementary(values, field.modulus)

    def test_defaults_to_len_elementary(self):
        e = brute_elementary([7, 9])
        assert elementary_to_power_sums(F, e) == brute_power_sums([7, 9], 2)


class TestPolynomialFromPowerSums:
    @given(values=st.lists(st.integers(min_value=0, max_value=P - 1),
                           min_size=1, max_size=8))
    @settings(max_examples=60)
    def test_roots_are_exactly_the_multiset(self, values):
        d = brute_power_sums(values, len(values))
        f = polynomial_from_power_sums(F, d)
        assert f.is_monic()
        assert f.degree == len(values)
        assert f == __import__("repro.arith.polynomial",
                               fromlist=["Poly"]).Poly.from_roots(F, values)

    def test_duplicates_produce_multiplicity(self):
        values = [5, 5, 9]
        d = brute_power_sums(values, 3)
        f = polynomial_from_power_sums(F, d)
        # (x-5)^2 divides f.
        from repro.arith.polynomial import Poly
        assert (f % Poly.from_roots(F, [5, 5])).is_zero

    def test_zero_elements_supported(self):
        # Zeros contribute nothing to power sums but must appear as roots.
        values = [0, 0, 7]
        d = brute_power_sums(values, 3)
        f = polynomial_from_power_sums(F, d)
        assert f(0) == 0 and f(7) == 0
        from repro.arith.polynomial import Poly
        assert f == Poly.from_roots(F, values)

    def test_empty_power_sums(self):
        f = polynomial_from_power_sums(F, [])
        assert f.degree == 0 and f.is_monic()
