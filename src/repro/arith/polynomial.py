"""Dense univariate polynomials over GF(p).

Decoding a quACK turns the power-sum differences into the coefficients of
the polynomial whose roots are the missing packet identifiers (paper,
Section 3.1).  The degrees involved are tiny -- at most the threshold ``t``
(tens) -- so schoolbook algorithms are the right tool; what matters is
correctness over the field and fast *evaluation* at many points, which is
vectorized through :meth:`repro.arith.field.PrimeField.horner_eval`.

Coefficients are stored low-to-high: ``coeffs[i]`` multiplies ``x**i``.
The zero polynomial is represented by an empty coefficient tuple and has
degree -1.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.arith.field import PrimeField
from repro.errors import ArithmeticDomainError


class Poly:
    """An immutable dense polynomial over a prime field."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: PrimeField, coeffs: Iterable[int]) -> None:
        self.field = field
        reduced = [c % field.modulus for c in coeffs]
        while reduced and reduced[-1] == 0:
            reduced.pop()
        self.coeffs: tuple[int, ...] = tuple(reduced)

    # -- constructors --------------------------------------------------------

    @classmethod
    def _from_reduced(cls, field: PrimeField, coeffs: list[int]) -> "Poly":
        """Wrap coefficients already in ``[0, p)`` (takes the list)."""
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        poly = cls.__new__(cls)
        poly.field = field
        poly.coeffs = tuple(coeffs)
        return poly

    @classmethod
    def zero(cls, field: PrimeField) -> "Poly":
        return cls(field, ())

    @classmethod
    def one(cls, field: PrimeField) -> "Poly":
        return cls(field, (1,))

    @classmethod
    def x(cls, field: PrimeField) -> "Poly":
        return cls(field, (0, 1))

    @classmethod
    def monomial(cls, field: PrimeField, degree: int, coeff: int = 1) -> "Poly":
        if degree < 0:
            raise ArithmeticDomainError(f"monomial degree must be >= 0, got {degree}")
        return cls(field, [0] * degree + [coeff])

    @classmethod
    def from_roots(cls, field: PrimeField, roots: Iterable[int]) -> "Poly":
        """Return the monic polynomial ``prod(x - r)`` over the field."""
        result = cls.one(field)
        for root in roots:
            result = result * cls(field, (field.neg(root), 1))
        return result

    # -- basic properties ----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading_coefficient(self) -> int:
        if not self.coeffs:
            raise ArithmeticDomainError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    # -- ring operations -----------------------------------------------------

    def _check_field(self, other: "Poly") -> None:
        if other.field != self.field:
            raise ArithmeticDomainError(
                f"mixed fields: GF({self.field.modulus}) vs GF({other.field.modulus})"
            )

    def __add__(self, other: "Poly") -> "Poly":
        self._check_field(other)
        longer, shorter = (self.coeffs, other.coeffs)
        if len(shorter) > len(longer):
            longer, shorter = shorter, longer
        merged = list(longer)
        for i, c in enumerate(shorter):
            merged[i] = (merged[i] + c) % self.field.modulus
        return Poly(self.field, merged)

    def __neg__(self) -> "Poly":
        return Poly(self.field, [self.field.neg(c) for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check_field(other)
        if self.is_zero or other.is_zero:
            return Poly.zero(self.field)
        p = self.field.modulus
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = (out[i + j] + a * b) % p
        return Poly(self.field, out)

    def scale(self, scalar: int) -> "Poly":
        scalar %= self.field.modulus
        return Poly(self.field, [c * scalar for c in self.coeffs])

    def __divmod__(self, divisor: "Poly") -> tuple["Poly", "Poly"]:
        """Polynomial long division; returns ``(quotient, remainder)``."""
        self._check_field(divisor)
        if divisor.is_zero:
            raise ArithmeticDomainError("polynomial division by zero")
        p = self.field.modulus
        dn = divisor.degree
        if dn == 1 and divisor.coeffs[-1] == 1:
            # Dividing by x - r (root deflation): synthetic division, one
            # multiply-add per coefficient.
            root = -divisor.coeffs[0]
            partial = []  # Horner's partial values: quotient, then f(r)
            carry = 0
            for c in reversed(self.coeffs):
                carry = (carry * root + c) % p
                partial.append(carry)
            partial.reverse()
            return (Poly._from_reduced(self.field, partial[1:]),
                    Poly._from_reduced(self.field, partial[:1]))
        remainder = list(self.coeffs)
        quotient = [0] * max(0, len(remainder) - dn)
        inv_lead = self.field.inv(divisor.leading_coefficient)
        for shift in range(len(remainder) - dn - 1, -1, -1):
            factor = (remainder[shift + dn] * inv_lead) % p
            if factor == 0:
                continue
            quotient[shift] = factor
            for i, d in enumerate(divisor.coeffs):
                remainder[shift + i] = (remainder[shift + i] - factor * d) % p
        return (Poly._from_reduced(self.field, quotient),
                Poly._from_reduced(self.field, remainder[:dn]))

    def __floordiv__(self, divisor: "Poly") -> "Poly":
        return divmod(self, divisor)[0]

    def __mod__(self, divisor: "Poly") -> "Poly":
        return divmod(self, divisor)[1]

    def monic(self) -> "Poly":
        """Scale so the leading coefficient is 1."""
        if self.is_zero:
            return self
        return self.scale(self.field.inv(self.leading_coefficient))

    def gcd(self, other: "Poly") -> "Poly":
        """Monic greatest common divisor (Euclid)."""
        self._check_field(other)
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        return a.monic() if not a.is_zero else a

    def derivative(self) -> "Poly":
        p = self.field.modulus
        return Poly(self.field,
                    [(i * c) % p for i, c in enumerate(self.coeffs)][1:])

    # -- modular exponentiation ----------------------------------------------

    def pow_mod(self, exponent: int, modulus_poly: "Poly") -> "Poly":
        """Compute ``self**exponent mod modulus_poly`` by square-and-multiply.

        This is the workhorse of direct root-finding: computing
        ``x**p mod f`` costs O(log p) polynomial multiplications of degree
        < deg f, independent of the number of candidate packets ``n``
        (paper, Section 4.3: "for large n, we can use the decoding
        algorithm that depends only on t").
        """
        if exponent < 0:
            raise ArithmeticDomainError("negative polynomial exponents are not supported")
        result = Poly.one(self.field) % modulus_poly
        base = self % modulus_poly
        while exponent:
            if exponent & 1:
                result = (result * base) % modulus_poly
            base = (base * base) % modulus_poly
            exponent >>= 1
        return result

    # -- evaluation ------------------------------------------------------------

    def __call__(self, x: int) -> int:
        """Evaluate at a single point via Horner's rule."""
        p = self.field.modulus
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % p
        return acc

    def eval_batch(self, points: Sequence[int] | np.ndarray) -> np.ndarray:
        """Evaluate at many points at once (vectorized Horner)."""
        return self.field.horner_eval(tuple(reversed(self.coeffs)), points)

    # -- dunder -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Poly) and other.field == self.field
                and other.coeffs == self.coeffs)

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def __repr__(self) -> str:
        if self.is_zero:
            return f"Poly(GF({self.field.modulus}), 0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*x" if c != 1 else "x")
            else:
                terms.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return f"Poly(GF({self.field.modulus}), {' + '.join(reversed(terms))})"
