"""Prime fields GF(p) with scalar and numpy-vectorized arithmetic.

The quACK's power sums live in GF(p) where ``p`` is the largest prime
expressible in the identifier bit width ``b`` (paper, Section 3.2).  This
module provides:

* :class:`PrimeField` -- scalar field operations plus batch (numpy) variants
  used to amortize per-packet construction cost;
* :func:`field_for_bits` -- the cached field matching a quACK bit width.

For moduli below 2**32 the batch path works in ``uint64`` (a product of two
reduced elements fits), matching the "hardware instructions" the paper's
C++ implementation selects per bit width.  Larger moduli fall back to exact
Python integers.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from repro.arith.primes import is_prime, largest_prime_in_bits
from repro.errors import ArithmeticDomainError

#: Largest modulus for which batch operations can use uint64 products.
_UINT64_SAFE_MODULUS = 1 << 32


class PrimeField:
    """The finite field of integers modulo a prime ``p``.

    Elements are plain Python ints in ``[0, p)``.  All operations reduce
    their operands first, so callers may pass arbitrary integers (e.g. raw
    b-bit packet identifiers that exceed ``p``); the reduction aliasing this
    implies is part of the quACK's documented collision probability.
    """

    __slots__ = ("modulus", "bits", "_vectorized", "_small_inverses")

    def __init__(self, modulus: int) -> None:
        if not is_prime(modulus):
            raise ArithmeticDomainError(f"{modulus} is not prime")
        self.modulus = modulus
        #: Number of bits needed to store a reduced element.
        self.bits = modulus.bit_length()
        #: Whether batch operations may use uint64 intermediate products.
        self._vectorized = modulus < _UINT64_SAFE_MODULUS
        #: ``_small_inverses[i] == inv(i)`` for the 1 <= i it holds so far.
        self._small_inverses = [0, 1]

    # -- scalar operations -------------------------------------------------

    def reduce(self, x: int) -> int:
        """Map an arbitrary integer into ``[0, p)``."""
        return x % self.modulus

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.modulus

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.modulus

    def neg(self, a: int) -> int:
        return (-a) % self.modulus

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.modulus

    def pow(self, base: int, exponent: int) -> int:
        """Raise ``base`` to a non-negative ``exponent``."""
        if exponent < 0:
            return self.pow(self.inv(base), -exponent)
        return pow(base % self.modulus, exponent, self.modulus)

    def inv(self, a: int) -> int:
        """Multiplicative inverse via Fermat's little theorem."""
        a %= self.modulus
        if a == 0:
            raise ArithmeticDomainError("zero has no multiplicative inverse")
        return pow(a, self.modulus - 2, self.modulus)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def small_inverses(self, n: int) -> list[int]:
        """Table with ``table[i] == inv(i)`` for ``1 <= i <= n < p``.

        Newton's identities divide by 1..m on every decode; the table is
        built once per field, each entry from a smaller one by
        ``inv(i) = -(p // i) * inv(p % i)``, with no exponentiation.
        """
        table = self._small_inverses
        if len(table) <= n:
            p = self.modulus
            if n >= p:
                raise ArithmeticDomainError(
                    f"{n} has no inverse table mod {p}: it contains a "
                    f"multiple of the modulus")
            table = list(table)
            for i in range(len(table), n + 1):
                table.append(-(p // i) * table[p % i] % p)
            self._small_inverses = table  # one store: readers never see a gap
        return table

    # -- batch operations ---------------------------------------------------

    def reduce_array(self, values: Iterable[int] | np.ndarray) -> np.ndarray:
        """Reduce a batch of integers into ``[0, p)``.

        Returns a ``uint64`` array for vectorizable moduli, otherwise an
        ``object`` array of Python ints (exact, but slower).
        """
        if self._vectorized:
            arr = np.asarray(values, dtype=np.uint64)
            return arr % np.uint64(self.modulus)
        # Exact path: force Python ints element-wise.  (A plain
        # object-array modulo would let numpy coerce uint64 scalars
        # against a >64-bit Python modulus into floats.)
        reduced = [int(v) % self.modulus for v in values]
        arr = np.empty(len(reduced), dtype=object)
        arr[:] = reduced
        return arr

    def batch_mul(self, a: np.ndarray, b: np.ndarray | int) -> np.ndarray:
        """Elementwise product of reduced arrays (or array-by-scalar)."""
        if self._vectorized:
            return (a * np.uint64(b) if np.isscalar(b) or isinstance(b, int)
                    else a * b) % np.uint64(self.modulus)
        return (a * b) % self.modulus

    def batch_add(self, a: np.ndarray, b: np.ndarray | int) -> np.ndarray:
        if self._vectorized:
            return (a + (np.uint64(b) if isinstance(b, int) else b)) \
                % np.uint64(self.modulus)
        return (a + b) % self.modulus

    def batch_power_sums(self, values: Iterable[int] | np.ndarray,
                         num_sums: int) -> list[int]:
        """Compute the first ``num_sums`` power sums of ``values``.

        The i-th power sum (1-indexed) of a multiset R is ``sum(x**i for x
        in R) mod p`` (paper, Section 3.1).  This is the vectorized bulk
        path; the incremental per-packet path lives in the quACK itself.
        """
        reduced = self.reduce_array(values)
        if reduced.size == 0:
            return [0] * num_sums
        sums: list[int] = []
        powers = reduced.copy()
        if self._vectorized:
            # Each power is < 2**32, so a uint64 accumulator holds the sum
            # of up to 2**32 terms without overflow.
            modulus = np.uint64(self.modulus)
            for _ in range(num_sums):
                sums.append(int(np.sum(powers, dtype=np.uint64)) % self.modulus)
                powers = (powers * reduced) % modulus
        else:
            for _ in range(num_sums):
                sums.append(int(powers.sum()) % self.modulus)
                powers = (powers * reduced) % self.modulus
        return sums

    def horner_eval(self, coefficients_high_to_low: Sequence[int],
                    points: np.ndarray) -> np.ndarray:
        """Evaluate a polynomial at many points via vectorized Horner.

        ``coefficients_high_to_low`` is ordered from the leading coefficient
        down to the constant term.  Used by the plug-in-candidates decoder,
        which evaluates the missing-packet polynomial at every identifier in
        the sender's log (Section 4.2: "it is more efficient to plug in all
        candidate roots than to solve the roots directly").
        """
        pts = self.reduce_array(points)
        if self._vectorized:
            modulus = np.uint64(self.modulus)
            acc = np.full(pts.shape, np.uint64(0))
            for coeff in coefficients_high_to_low:
                acc = (acc * pts + np.uint64(coeff % self.modulus)) % modulus
            return acc
        acc = np.zeros(pts.shape, dtype=object)
        for coeff in coefficients_high_to_low:
            acc = (acc * pts + (coeff % self.modulus)) % self.modulus
        return acc

    # -- dunder -------------------------------------------------------------

    def __contains__(self, x: int) -> bool:
        return isinstance(x, int) and 0 <= x < self.modulus

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.modulus == self.modulus

    def __hash__(self) -> int:
        return hash((PrimeField, self.modulus))

    def __repr__(self) -> str:
        return f"PrimeField({self.modulus})"


@lru_cache(maxsize=None)
def field_for_bits(bits: int) -> PrimeField:
    """The field modulo the largest prime expressible in ``bits`` bits."""
    return PrimeField(largest_prime_in_bits(bits))
