"""Root-finding in GF(p) for quACK decoding.

Two strategies, matching the two decode paths the paper describes:

* :func:`roots_among_candidates` -- evaluate the polynomial at every
  candidate identifier in the sender's log (vectorized Horner).  Cost is
  O(n * m) field operations; the paper uses this "for a small n, such as
  here [n=1000], it is more efficient to plug in all candidate roots than
  to solve the roots directly" (Section 4.2).

* :func:`find_all_roots` -- direct factorization, independent of ``n``
  (Section 4.3: "for large n, we can use the decoding algorithm that
  depends only on t").  It isolates the distinct-root product
  ``gcd(f, x**p - x)`` with one modular exponentiation, then splits it by
  Cantor--Zassenhaus equal-degree splitting, and recovers multiplicities
  by trial division.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Sequence

import numpy as np

from repro.arith.polynomial import Poly
from repro.errors import ArithmeticDomainError


def roots_among_candidates(poly: Poly,
                           candidates: Sequence[int] | np.ndarray) -> np.ndarray:
    """Return a boolean mask: which candidates are roots of ``poly``.

    Candidates are reduced modulo ``p`` before evaluation (raw b-bit
    identifiers may slightly exceed the modulus).  The zero polynomial
    vacuously has every candidate as a root, which the decoder treats as
    an inconsistency upstream, so it is rejected here.
    """
    if poly.is_zero:
        raise ArithmeticDomainError("every point is a root of the zero polynomial")
    values = poly.eval_batch(candidates)
    return np.asarray(values == 0)


def find_all_roots(poly: Poly, rng: random.Random | None = None) -> Counter:
    """Find every root of ``poly`` in GF(p), with multiplicity.

    Returns a :class:`collections.Counter` mapping root -> multiplicity.
    The sum of multiplicities can be less than ``deg(poly)`` when some
    irreducible factors have degree > 1 (for a quACK this signals an
    inconsistent difference, e.g. a wrapped-around count).

    ``rng`` seeds the Cantor--Zassenhaus splitting; when omitted, a
    deterministic generator derived from the polynomial is used so decode
    results are reproducible.
    """
    if poly.is_zero:
        raise ArithmeticDomainError("the zero polynomial has every element as a root")
    if rng is None:
        rng = random.Random(hash(poly.coeffs) & 0xFFFFFFFF)
    field = poly.field
    p = field.modulus
    roots: Counter = Counter()

    work = poly.monic()
    # Strip roots at zero first: x**k divides f  <=>  lowest k coeffs vanish.
    zero_mult = 0
    while not work.is_zero and work.coeffs[0] == 0:
        work = Poly(field, work.coeffs[1:])
        zero_mult += 1
    if zero_mult:
        roots[0] = zero_mult
    if work.degree < 1:
        return roots

    # Distinct non-zero roots divide gcd(f, x**p - x) = gcd(f, x**p mod f - x).
    x = Poly.x(field)
    x_to_p = x.pow_mod(p, work)
    linear_part = work.gcd(x_to_p - x)
    distinct = _split_linear(linear_part, rng)

    for root in distinct:
        work, roots[root] = deflate_root(work, root)
    return roots


def deflate_root(poly: Poly, root: int) -> tuple[Poly, int]:
    """Divide out every copy of ``x - root``, which must divide ``poly``.

    Returns the quotient and the multiplicity (>= 1).  One division per
    copy: whether another copy remains is read off the quotient's value
    at ``root`` rather than found by a division that leaves a remainder.
    """
    divisor = Poly(poly.field, (-root, 1))
    multiplicity = 0
    while True:
        poly, remainder = divmod(poly, divisor)
        if not remainder.is_zero:
            raise ArithmeticDomainError(
                f"{root} is not a root of the polynomial being deflated")
        multiplicity += 1
        if poly(root) != 0:
            return poly, multiplicity


def _split_linear(poly: Poly, rng: random.Random) -> list[int]:
    """Extract the roots of a squarefree product of linear factors.

    ``poly`` must be monic and split completely into distinct linear
    factors over GF(p) (guaranteed for ``gcd(f, x**p - x)``).  Uses the
    classic randomized splitting: ``gcd((x + a)**((p-1)/2) - 1, g)``
    separates roots by quadratic-residue character of ``root + a``.
    """
    field = poly.field
    p = field.modulus
    if poly.degree <= 0:
        return []
    if poly.degree == 1:
        # x + c0  =>  root is -c0.
        return [field.neg(field.mul(poly.coeffs[0], field.inv(poly.coeffs[1])))]
    if p == 2:  # pragma: no cover - quACK moduli are large odd primes
        return [r for r in (0, 1) if poly(r) == 0]

    half = (p - 1) // 2
    one = Poly.one(field)
    while True:
        shift = rng.randrange(p)
        probe = Poly(field, (shift, 1))  # x + a
        h = probe.pow_mod(half, poly) - one
        g1 = poly.gcd(h)
        if 0 < g1.degree < poly.degree:
            g2 = poly // g1
            return _split_linear(g1, rng) + _split_linear(g2, rng)
        # Unlucky split (all roots on the same side); retry with another a.
