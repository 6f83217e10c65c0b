"""Finite-field arithmetic substrate for the power-sum quACK.

Public surface:

* :func:`~repro.arith.primes.is_prime`, :func:`~repro.arith.primes.largest_prime_in_bits`
* :class:`~repro.arith.field.PrimeField`, :func:`~repro.arith.field.field_for_bits`
* :class:`~repro.arith.polynomial.Poly`
* Newton's identities in :mod:`repro.arith.newton`
* Root finding in :mod:`repro.arith.roots`

:mod:`repro.arith.montgomery` (the E10 field-arithmetic ablation's
alternative reductions) is imported by module path, not from here: no
runtime path uses it, so importing the package does not load it.
"""

from repro.arith.field import PrimeField, field_for_bits
from repro.arith.newton import (
    elementary_to_power_sums,
    polynomial_from_power_sums,
    power_sums_to_elementary,
)
from repro.arith.polynomial import Poly
from repro.arith.primes import (
    is_prime,
    largest_prime_in_bits,
    next_prime,
    prev_prime,
)
from repro.arith.roots import find_all_roots, roots_among_candidates

__all__ = [
    "PrimeField",
    "field_for_bits",
    "Poly",
    "is_prime",
    "largest_prime_in_bits",
    "next_prime",
    "prev_prime",
    "power_sums_to_elementary",
    "elementary_to_power_sums",
    "polynomial_from_power_sums",
    "find_all_roots",
    "roots_among_candidates",
]
