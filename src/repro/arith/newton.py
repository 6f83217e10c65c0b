"""Newton's identities over GF(p): power sums <-> elementary symmetric polys.

The quACK decoder receives the first ``m`` power-sum differences
``d_i = sum(x**i for x in S \\ R)`` and must recover the multiset ``S \\ R``
(paper, Section 3.1).  Newton's identities convert the power sums into the
elementary symmetric polynomials ``e_1 .. e_m`` of the missing elements:

    i * e_i = sum_{k=1..i} (-1)**(k-1) * e_{i-k} * d_k

from which the monic polynomial whose roots are exactly the missing
elements is

    f(x) = x**m - e_1 x**(m-1) + e_2 x**(m-2) - ... + (-1)**m e_m.

Both directions are implemented (the forward one for decoding, the inverse
for property tests), plus the convenience that builds the decoder's ``f``.

The division by ``i`` requires ``i`` to be invertible mod ``p``, which
holds whenever ``m < p`` -- always true here since ``m <= t`` is tens and
``p`` is at least 251 (8-bit identifiers).
"""

from __future__ import annotations

from operator import mul
from typing import Sequence

from repro.arith.field import PrimeField
from repro.arith.polynomial import Poly
from repro.errors import ArithmeticDomainError


def power_sums_to_elementary(field: PrimeField,
                             power_sums: Sequence[int]) -> list[int]:
    """Convert power sums ``d_1..d_m`` into ``e_1..e_m`` via Newton's identities.

    Returns a list of the same length as ``power_sums``.
    """
    m = len(power_sums)
    if m >= field.modulus:
        raise ArithmeticDomainError(
            f"Newton's identities need m < p; got m={m}, p={field.modulus}"
        )
    p = field.modulus
    # The sign of each term goes into d once, so that step i is the dot
    # product of (e_{i-1}, ..., e_0) with (d_1, -d_2, ..., +-d_i) and one
    # reduction; exact, since Python integers do not overflow.
    signed_d = [x % p if k % 2 == 0 else -(x % p)
                for k, x in enumerate(power_sums)]
    inverses = field.small_inverses(m)
    e: list[int] = [1]  # e_0 = 1
    for i in range(1, m + 1):
        acc = sum(map(mul, reversed(e), signed_d))
        e.append(acc * inverses[i] % p)
    return e[1:]


def elementary_to_power_sums(field: PrimeField,
                             elementary: Sequence[int]) -> list[int]:
    """Inverse direction: recover ``d_1..d_m`` from ``e_1..e_m``, by

        d_i = (-1)**(i-1) * i * e_i
              + sum_{k=1..i-1} (-1)**(k-1) * e_k * d_{i-k}.
    """
    p = field.modulus
    e = [1] + [x % p for x in elementary]
    d: list[int] = []
    for i in range(1, len(e)):
        acc = (i * e[i]) % p
        if i % 2 == 0:
            acc = (-acc) % p
        for k in range(1, i):
            term = (e[k] * d[i - k - 1]) % p
            acc = (acc + term) % p if k % 2 == 1 else (acc - term) % p
        d.append(acc)
    return d


def polynomial_from_power_sums(field: PrimeField,
                               power_sums: Sequence[int]) -> Poly:
    """Build the monic degree-``m`` polynomial whose roots are the missing set.

    ``power_sums`` must be exactly the first ``m`` power sums of the
    missing multiset, where ``m`` is its size (the count difference the
    sender computes).  The returned polynomial is
    ``prod(x - r for r in missing)`` with multiplicity.
    """
    e = power_sums_to_elementary(field, power_sums)
    m = len(e)
    p = field.modulus
    # Coefficient of x**(m-i) is (-1)**i e_i, stored low-to-high.
    coeffs = [0] * (m + 1)
    coeffs[m] = 1
    for i in range(1, m + 1):
        value = e[i - 1] if i % 2 == 0 else (-e[i - 1]) % p
        coeffs[m - i] = value % p
    return Poly(field, coeffs)
