"""Primality testing and prime selection for quACK moduli.

The power-sum quACK performs all arithmetic "modulo the largest prime that
can be expressed in b bits" (paper, Section 3.2).  This module provides a
deterministic Miller--Rabin primality test (exact for every integer below
3.3 * 10**24, far beyond the 64-bit identifiers we support) and helpers to
locate that largest prime.

The moduli used throughout the paper's evaluation:

=====  =======================  =====================
bits   largest prime < 2**b     value
=====  =======================  =====================
8      2**8 - 5                 251
16     2**16 - 15               65521
24     2**24 - 3                16777213
32     2**32 - 5                4294967291
64     2**64 - 59               18446744073709551557
=====  =======================  =====================
"""

from __future__ import annotations

from functools import lru_cache

from repro.errors import ArithmeticDomainError

# Deterministic Miller-Rabin witness sets (Sinclair / Jaeschke).  Each entry
# maps an exclusive upper bound to the witnesses sufficient below it.
_WITNESS_SETS: tuple[tuple[int, tuple[int, ...]], ...] = (
    (2_047, (2,)),
    (1_373_653, (2, 3)),
    (9_080_191, (31, 73)),
    (25_326_001, (2, 3, 5)),
    (3_215_031_751, (2, 3, 5, 7)),
    (4_759_123_141, (2, 7, 61)),
    (1_122_004_669_633, (2, 13, 23, 1662803)),
    (2_152_302_898_747, (2, 3, 5, 7, 11)),
    (3_474_749_660_383, (2, 3, 5, 7, 11, 13)),
    (341_550_071_728_321, (2, 3, 5, 7, 11, 13, 17)),
    (3_825_123_056_546_413_051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (318_665_857_834_031_151_167_461, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
    (3_317_044_064_679_887_385_961_981,
     (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
)

_SMALL_PRIMES: tuple[int, ...] = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97,
)


def _miller_rabin_witness(n: int, a: int, d: int, r: int) -> bool:
    """Return True if ``a`` witnesses that ``n`` is composite."""
    x = pow(a, d, n)
    if x in (1, n - 1):
        return False
    for _ in range(r - 1):
        x = (x * x) % n
        if x == n - 1:
            return False
    return True


def is_prime(n: int) -> bool:
    """Deterministically decide primality of ``n``.

    Exact for every ``n`` below 3.3e24 (deterministic witness sets); above
    that the strongest witness set is still used, making false positives
    astronomically unlikely, but the quACK library never needs moduli that
    large.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    witnesses = _WITNESS_SETS[-1][1]
    for bound, ws in _WITNESS_SETS:
        if n < bound:
            witnesses = ws
            break
    return not any(_miller_rabin_witness(n, a % n, d, r) for a in witnesses if a % n)


def prev_prime(n: int) -> int:
    """Return the largest prime strictly below ``n``.

    Raises :class:`ArithmeticDomainError` when no prime exists below ``n``
    (i.e. ``n <= 2``).
    """
    if n <= 2:
        raise ArithmeticDomainError(f"no prime exists below {n}")
    candidate = n - 1
    if candidate > 2 and candidate % 2 == 0:
        candidate -= 1
    while candidate >= 2:
        if is_prime(candidate):
            return candidate
        candidate -= 2 if candidate > 3 else 1
    raise ArithmeticDomainError(f"no prime exists below {n}")  # pragma: no cover


@lru_cache(maxsize=None)
def largest_prime_in_bits(bits: int) -> int:
    """Return the largest prime expressible in ``bits`` bits (below 2**bits).

    This is the quACK modulus for ``b``-bit identifiers (Section 3.2).
    """
    if bits < 2:
        raise ArithmeticDomainError(
            f"need at least 2 bits to express a prime, got {bits}"
        )
    return prev_prime(1 << bits)
