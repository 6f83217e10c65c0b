"""Montgomery-domain multiplication for quACK moduli.

The paper's C++ implementation selects different multiplication strategies
per identifier width (Section 4.2: "The value of b determines which
hardware instructions and, in the 16-bit case, pre-computation
optimizations the arithmetic can use").  The 64-bit modulus in particular
benefits from Montgomery multiplication, which replaces the division in
``a * b mod p`` with shifts and masks.

This module reproduces that design point so the field-backend ablation
(`benchmarks/test_ablation_field.py`) can compare:

* plain widening multiplication + ``%`` (the :class:`~repro.arith.field.PrimeField` default),
* Montgomery-domain multiplication (:class:`MontgomeryField`),
* full log/antilog table lookup for 16-bit moduli (:class:`LogTableField`).

In CPython the ``%`` operator is already a single C-level operation, so
Montgomery form does not win here the way it does in C++ -- the benchmark
reports whatever we measure, and EXPERIMENTS.md discusses the difference.
"""

from __future__ import annotations

import numpy as np

from repro.arith.field import PrimeField
from repro.errors import ArithmeticDomainError


class MontgomeryField:
    """GF(p) arithmetic in Montgomery form with R = 2**r, r = bit width of p.

    Elements are stored as ``aR mod p``.  Multiplication uses the REDC
    algorithm; addition and subtraction are unchanged.  ``p`` must be odd
    (true for every quACK modulus, which is a large prime).
    """

    __slots__ = ("modulus", "r_bits", "_r", "_r_mask", "_r2", "_n_prime")

    def __init__(self, modulus: int) -> None:
        if modulus % 2 == 0 or modulus < 3:
            raise ArithmeticDomainError(
                f"Montgomery form requires an odd modulus > 2, got {modulus}"
            )
        self.modulus = modulus
        self.r_bits = modulus.bit_length()
        self._r = 1 << self.r_bits
        self._r_mask = self._r - 1
        # n' such that n * n' == -1 (mod R).
        self._n_prime = (-pow(modulus, -1, self._r)) % self._r
        # R**2 mod p, used to convert into Montgomery form.
        self._r2 = (self._r * self._r) % modulus

    # -- conversions ---------------------------------------------------------

    def to_mont(self, a: int) -> int:
        """Convert a normal residue into Montgomery form (``aR mod p``)."""
        return self._redc((a % self.modulus) * self._r2)

    def from_mont(self, a_mont: int) -> int:
        """Convert a Montgomery-form element back to a normal residue."""
        return self._redc(a_mont)

    # -- arithmetic (on Montgomery-form operands) -----------------------------

    def _redc(self, t: int) -> int:
        """Montgomery reduction: return ``t * R**-1 mod p`` for t < pR."""
        m = ((t & self._r_mask) * self._n_prime) & self._r_mask
        result = (t + m * self.modulus) >> self.r_bits
        if result >= self.modulus:
            result -= self.modulus
        return result

    def mul(self, a_mont: int, b_mont: int) -> int:
        return self._redc(a_mont * b_mont)

    def add(self, a_mont: int, b_mont: int) -> int:
        s = a_mont + b_mont
        return s - self.modulus if s >= self.modulus else s

    def sub(self, a_mont: int, b_mont: int) -> int:
        d = a_mont - b_mont
        return d + self.modulus if d < 0 else d

    def pow(self, base_mont: int, exponent: int) -> int:
        """Montgomery-form exponentiation by squaring."""
        if exponent < 0:
            raise ArithmeticDomainError("negative exponents are not supported")
        result = self.to_mont(1)
        acc = base_mont
        while exponent:
            if exponent & 1:
                result = self.mul(result, acc)
            acc = self.mul(acc, acc)
            exponent >>= 1
        return result

    def __repr__(self) -> str:
        return f"MontgomeryField({self.modulus})"


class LogTableField:
    """GF(p) multiplication via discrete log/antilog tables.

    Only feasible for small moduli (the 16-bit quACK field, p = 65521):
    the tables store ``g**i mod p`` for a primitive root ``g`` and its
    inverse permutation.  A product then costs two table reads and one
    add, the "pre-computation optimization" the paper attributes to the
    16-bit configuration.
    """

    #: Refuse to build tables above this modulus (memory guard).
    MAX_MODULUS = 1 << 20

    __slots__ = ("modulus", "generator", "_exp", "_log")

    def __init__(self, modulus: int) -> None:
        field = PrimeField(modulus)  # validates primality
        if modulus > self.MAX_MODULUS:
            raise ArithmeticDomainError(
                f"log tables for p={modulus} would need {2 * modulus * 8} "
                f"bytes; use PrimeField or MontgomeryField instead"
            )
        self.modulus = modulus
        self.generator = _find_primitive_root(field)
        order = modulus - 1
        exp = np.empty(2 * order, dtype=np.uint32)
        log = np.zeros(modulus, dtype=np.uint32)
        value = 1
        for i in range(order):
            exp[i] = value
            log[value] = i
            value = (value * self.generator) % modulus
        # Duplicate the cycle so mul never needs a reduction mod (p-1).
        exp[order:] = exp[:order]
        self._exp = exp
        self._log = log

    def mul(self, a: int, b: int) -> int:
        a %= self.modulus
        b %= self.modulus
        if a == 0 or b == 0:
            return 0
        return int(self._exp[int(self._log[a]) + int(self._log[b])])

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.modulus

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.modulus

    def pow(self, base: int, exponent: int) -> int:
        base %= self.modulus
        if base == 0:
            if exponent == 0:
                return 1
            if exponent < 0:
                raise ArithmeticDomainError("zero has no inverse")
            return 0
        log = int(self._log[base]) * exponent % (self.modulus - 1)
        return int(self._exp[log])

    def inv(self, a: int) -> int:
        a %= self.modulus
        if a == 0:
            raise ArithmeticDomainError("zero has no multiplicative inverse")
        return int(self._exp[(self.modulus - 1) - int(self._log[a])])

    def batch_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Vectorized table-lookup product of two reduced arrays."""
        a = np.asarray(a, dtype=np.uint32)
        b = np.asarray(b, dtype=np.uint32)
        out = self._exp[self._log[a].astype(np.int64) + self._log[b].astype(np.int64)]
        out = np.asarray(out, dtype=np.uint32).copy()
        out[(a == 0) | (b == 0)] = 0
        return out

    def __repr__(self) -> str:
        return f"LogTableField({self.modulus}, generator={self.generator})"


def _find_primitive_root(field: PrimeField) -> int:
    """Find the smallest primitive root of the field's modulus."""
    p = field.modulus
    order = p - 1
    prime_factors = _prime_factors(order)
    for candidate in range(2, p):
        if all(field.pow(candidate, order // q) != 1 for q in prime_factors):
            return candidate
    raise ArithmeticDomainError(  # pragma: no cover - every prime has one
        f"no primitive root found for {p}"
    )


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of ``n`` by trial division (n is small here)."""
    factors: list[int] = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        factors.append(n)
    return factors
