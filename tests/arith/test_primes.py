"""Tests for repro.arith.primes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arith.primes import (
    is_prime,
    largest_prime_in_bits,
    prev_prime,
)
from repro.errors import ArithmeticDomainError

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                59, 61, 67, 71, 73, 79, 83, 89, 97, 101]
SMALL_COMPOSITES = [0, 1, 4, 6, 8, 9, 10, 12, 15, 21, 25, 27, 33, 35, 49,
                    51, 55, 57, 63, 65, 77, 81, 91, 99, 100]
# Carmichael numbers fool Fermat tests; Miller-Rabin must reject them.
CARMICHAEL = [561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341]


class TestIsPrime:
    @pytest.mark.parametrize("p", SMALL_PRIMES)
    def test_small_primes(self, p):
        assert is_prime(p)

    @pytest.mark.parametrize("c", SMALL_COMPOSITES)
    def test_small_composites(self, c):
        assert not is_prime(c)

    @pytest.mark.parametrize("c", CARMICHAEL)
    def test_carmichael_numbers_rejected(self, c):
        assert not is_prime(c)

    def test_negative_numbers(self):
        assert not is_prime(-7)
        assert not is_prime(-1)

    @pytest.mark.parametrize("p", [
        65_521,                      # largest 16-bit prime
        16_777_213,                  # largest 24-bit prime
        4_294_967_291,               # largest 32-bit prime
        18_446_744_073_709_551_557,  # largest 64-bit prime
        (1 << 61) - 1,               # Mersenne prime M61
    ])
    def test_known_large_primes(self, p):
        assert is_prime(p)

    @pytest.mark.parametrize("c", [
        65_521 * 16_777_213,
        4_294_967_291 + 2,   # 2**32 - 3 = 13 * 330382099 * ...
        (1 << 61) + 1,
    ])
    def test_large_composites(self, c):
        assert not is_prime(c)

    def test_brute_force_agreement_below_2000(self):
        def slow(n):
            if n < 2:
                return False
            return all(n % d for d in range(2, int(n ** 0.5) + 1))

        for n in range(2000):
            assert is_prime(n) == slow(n), n


class TestPrevNextPrime:
    def test_prev_prime_basic(self):
        assert prev_prime(10) == 7
        assert prev_prime(8) == 7
        assert prev_prime(3) == 2
        assert prev_prime(2 ** 16) == 65_521

    def test_prev_prime_of_prime_is_strictly_below(self):
        assert prev_prime(7) == 5

    def test_prev_prime_no_prime_below(self):
        with pytest.raises(ArithmeticDomainError):
            prev_prime(2)
        with pytest.raises(ArithmeticDomainError):
            prev_prime(0)

    @given(st.integers(min_value=3, max_value=10 ** 6))
    @settings(max_examples=60)
    def test_prev_prime_properties(self, n):
        p = prev_prime(n)
        assert p < n
        assert is_prime(p)
        # No prime strictly between p and n.
        assert all(not is_prime(q) for q in range(p + 1, min(n, p + 200)))


class TestLargestPrimeInBits:
    @pytest.mark.parametrize("bits,expected", [
        (8, 251),
        (16, 65_521),
        (24, 16_777_213),
        (32, 4_294_967_291),
        (64, 18_446_744_073_709_551_557),
    ])
    def test_paper_moduli(self, bits, expected):
        assert largest_prime_in_bits(bits) == expected

    def test_fits_in_bits(self):
        for bits in range(2, 40):
            p = largest_prime_in_bits(bits)
            assert p < (1 << bits)
            assert is_prime(p)

    def test_too_few_bits(self):
        with pytest.raises(ArithmeticDomainError):
            largest_prime_in_bits(1)

    def test_cached(self):
        assert largest_prime_in_bits(32) is largest_prime_in_bits(32) or \
            largest_prime_in_bits(32) == largest_prime_in_bits(32)
