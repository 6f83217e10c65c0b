"""Tests for repro.arith.field."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arith.field import PrimeField, field_for_bits
from repro.errors import ArithmeticDomainError

P32 = 4_294_967_291
P16 = 65_521
P64 = 18_446_744_073_709_551_557

elements32 = st.integers(min_value=0, max_value=P32 - 1)


@pytest.fixture(scope="module")
def f32():
    return PrimeField(P32)


@pytest.fixture(scope="module")
def f64():
    return PrimeField(P64)


class TestConstruction:
    def test_rejects_composite_modulus(self):
        with pytest.raises(ArithmeticDomainError):
            PrimeField(2 ** 32)  # not prime

    def test_rejects_one(self):
        with pytest.raises(ArithmeticDomainError):
            PrimeField(1)

    def test_field_for_bits_matches_modulus(self):
        assert field_for_bits(16).modulus == P16
        assert field_for_bits(32).modulus == P32
        assert field_for_bits(64).modulus == P64

    def test_field_for_bits_cached(self):
        assert field_for_bits(32) is field_for_bits(32)

    def test_equality_and_hash(self):
        assert PrimeField(P16) == PrimeField(P16)
        assert PrimeField(P16) != PrimeField(P32)
        assert hash(PrimeField(P16)) == hash(PrimeField(P16))

    def test_contains(self, f32):
        assert 0 in f32
        assert P32 - 1 in f32
        assert P32 not in f32
        assert -1 not in f32


class TestScalarOps:
    @given(a=elements32, b=elements32)
    @settings(max_examples=100)
    def test_ring_axioms_32(self, a, b):
        f = PrimeField(P32)
        assert f.add(a, b) == (a + b) % P32
        assert f.sub(a, b) == (a - b) % P32
        assert f.mul(a, b) == (a * b) % P32
        assert f.add(a, f.neg(a)) == 0

    @given(a=st.integers(min_value=1, max_value=P32 - 1))
    @settings(max_examples=50)
    def test_inverse(self, a):
        f = PrimeField(P32)
        assert f.mul(a, f.inv(a)) == 1

    @pytest.mark.parametrize("modulus", [251, P16, P32, P64])
    def test_small_inverses_match_fermat(self, modulus):
        f = PrimeField(modulus)
        short = f.small_inverses(5)
        table = f.small_inverses(64)          # grows the cached table
        assert table[:6] == short[:6]
        assert f.small_inverses(20) is table  # and then reuses it
        for i in range(1, 65):
            assert table[i] == pow(i, modulus - 2, modulus)

    def test_small_inverses_stop_below_the_modulus(self):
        f = PrimeField(7)
        assert f.small_inverses(6)[1:] == [1, 4, 5, 2, 3, 6]
        with pytest.raises(ArithmeticDomainError):
            f.small_inverses(7)

    def test_inverse_of_zero(self, f32):
        with pytest.raises(ArithmeticDomainError):
            f32.inv(0)

    def test_reduce_arbitrary_ints(self, f32):
        assert f32.reduce(P32) == 0
        assert f32.reduce(-1) == P32 - 1
        assert f32.reduce(2 ** 40) == 2 ** 40 % P32

    @given(a=elements32, e=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=50)
    def test_pow_matches_builtin(self, a, e):
        f = PrimeField(P32)
        assert f.pow(a, e) == pow(a, e, P32)

    def test_negative_exponent(self, f32):
        a = 123_456
        assert f32.mul(f32.pow(a, -1), a) == 1
        assert f32.pow(a, -3) == f32.inv(f32.pow(a, 3))

    def test_fermat(self, f32):
        # a**(p-1) == 1 for a != 0.
        assert f32.pow(9_999_991, P32 - 1) == 1


class TestBatchOps:
    @given(values=st.lists(st.integers(min_value=0, max_value=2 ** 32 - 1),
                           min_size=0, max_size=40))
    @settings(max_examples=50)
    def test_batch_power_sums_match_bruteforce(self, values):
        f = PrimeField(P32)
        sums = f.batch_power_sums(values, 5)
        for i in range(1, 6):
            assert sums[i - 1] == sum(pow(v % P32, i, P32)
                                      for v in values) % P32

    def test_batch_power_sums_empty(self, f32):
        assert f32.batch_power_sums([], 4) == [0, 0, 0, 0]

    def test_reduce_array_dtype_small_modulus(self, f32):
        out = f32.reduce_array([P32, P32 + 1, 5])
        assert out.dtype == np.uint64
        assert out.tolist() == [0, 1, 5]

    def test_reduce_array_large_modulus_object(self, f64):
        out = f64.reduce_array([P64 + 3, 7])
        assert out.dtype == object
        assert list(out) == [3, 7]

    def test_batch_mul_scalar_and_array(self, f32):
        a = f32.reduce_array([2, 3, P32 - 1])
        out = f32.batch_mul(a, 10)
        assert out.tolist() == [20, 30, (P32 - 1) * 10 % P32]
        out2 = f32.batch_mul(a, a)
        assert out2.tolist() == [4, 9, pow(P32 - 1, 2, P32)]

    def test_batch_power_sums_refuses_a_64bit_field(self, f64):
        """uint64 products overflow past 2**32; the quACK folds such a
        field in its own loop (``test_power_sum.py`` covers it)."""
        with pytest.raises(ArithmeticDomainError):
            f64.batch_power_sums([P64 - 1, 2 ** 63, 12345], 3)


class TestHornerEval:
    @given(coeffs=st.lists(elements32, min_size=1, max_size=8),
           points=st.lists(elements32, min_size=1, max_size=10))
    @settings(max_examples=40)
    def test_matches_scalar_horner(self, coeffs, points):
        f = PrimeField(P32)
        out = f.horner_eval(coeffs, np.array(points, dtype=np.uint64))

        def scalar(x):
            acc = 0
            for c in coeffs:
                acc = (acc * x + c) % P32
            return acc

        assert [int(v) for v in out] == [scalar(x) for x in points]

    def test_object_path_matches(self, f64):
        coeffs = [3, 0, P64 - 1]
        points = [0, 1, P64 - 1, 2 ** 63]
        out = f64.horner_eval(coeffs, np.array(points, dtype=object))

        def scalar(x):
            acc = 0
            for c in coeffs:
                acc = (acc * x + c) % P64
            return acc

        assert list(out) == [scalar(x % P64) for x in points]
