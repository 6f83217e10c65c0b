"""Identifier-collision analytics (paper Section 4.2, Table 3).

With ``b``-bit identifiers drawn uniformly at random (the case for
randomly-encrypted QUIC headers), the probability that a given identifier
in a list of ``n`` packets collides with at least one *other* packet's
identifier is

    P(collision) = 1 - (1 - 1/2**b)**(n-1).

When a colliding identifier is both received and dropped, the fates of
those packets are indeterminate (Section 3.2).  Table 3 tabulates this
probability for n = 1000:

    bits:   8      16      24       32
    prob:   0.98   0.015   6.0e-05  2.3e-07

This module provides the closed form and a Monte-Carlo estimator used
to validate the closed form empirically.
"""

from __future__ import annotations

import math
import random


def collision_probability(n: int, bits: int) -> float:
    """P(a given identifier among ``n`` collides), identifiers uniform b-bit.

    This is the paper's "collision probability ... that a randomly-chosen
    b-bit identifier in a list of n packets maps to more than one packet
    in that list".
    """
    if n < 1:
        raise ValueError(f"need at least one packet, got n={n}")
    if bits < 1:
        raise ValueError(f"need at least one identifier bit, got {bits}")
    # expm1/log1p keep precision when 1/2**bits is tiny (b=32 -> 2.3e-7).
    return -math.expm1((n - 1) * math.log1p(-(0.5 ** bits)))


def monte_carlo_collision_rate(n: int, bits: int, trials: int,
                               rng: random.Random | None = None) -> float:
    """Empirical estimate of :func:`collision_probability`.

    Each trial draws ``n`` uniform b-bit identifiers and checks whether the
    *first* one (an arbitrary distinguished packet) collides with any other.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    rng = rng if rng is not None else random.Random(0xC0111DE)
    space = 1 << bits
    hits = 0
    for _ in range(trials):
        probe = rng.randrange(space)
        if any(rng.randrange(space) == probe for _ in range(n - 1)):
            hits += 1
    return hits / trials
