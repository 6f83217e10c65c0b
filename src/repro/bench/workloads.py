"""Workload generation for the quACK benchmarks.

Every microbenchmark in the paper's Section 4 runs over the same shape of
input: ``n`` sent packets with uniform ``b``-bit identifiers, of which
``m <= t`` chosen uniformly at random are missing.  :func:`make_workload`
builds that, deterministically from a seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.ids.identifiers import random_identifiers

#: The paper's running configuration (Sections 1 and 4.1).
PAPER_N = 1000
PAPER_T = 20
PAPER_B = 32
PAPER_COUNT_BITS = 16


@dataclass(frozen=True)
class QuackWorkload:
    """One (sent, received, missing) instance."""

    sent: np.ndarray
    received: np.ndarray
    missing: tuple[int, ...]
    bits: int

    @property
    def n(self) -> int:
        return int(self.sent.size)

    @property
    def num_missing(self) -> int:
        return len(self.missing)


def make_workload(n: int = PAPER_N, num_missing: int = PAPER_T,
                  bits: int = PAPER_B, seed: int = 0) -> QuackWorkload:
    """``n`` random identifiers with ``num_missing`` of them undelivered."""
    if not 0 <= num_missing <= n:
        raise ValueError(f"need 0 <= missing <= n, got {num_missing} of {n}")
    rng = random.Random(seed)
    sent = random_identifiers(n, bits, rng)
    missing_indices = sorted(rng.sample(range(n), num_missing))
    received = np.delete(sent, missing_indices)
    missing = tuple(sorted(int(sent[i]) for i in missing_indices))
    return QuackWorkload(sent=sent, received=received, missing=missing,
                         bits=bits)
