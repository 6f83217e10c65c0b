"""Decoding power-sum quACK differences into missing packet multisets.

The sender holds a *difference* quACK ``delta = sent_quack - received_quack``
whose power sums are exactly those of the missing multiset ``S \\ R`` and
whose count is the wrapped number of missing packets ``m`` (Section 3.2).
Decoding then proceeds:

1. ``m == 0`` with all-zero sums -> nothing is missing;
2. ``m > t`` -> ``THRESHOLD_EXCEEDED`` (not enough equations; the
   session must reset);
3. otherwise, Newton's identities turn the first ``m`` power sums into the
   monic polynomial whose roots (with multiplicity) are the missing
   identifiers, and a root-finding strategy recovers them:

   * ``"candidates"`` -- evaluate the polynomial at every distinct residue
     in the sender's log; best for small logs (Section 4.2);
   * ``"factor"`` -- factor the polynomial directly, cost independent of
     the log length ``n`` (Section 4.3).

Identifier collisions (two distinct log entries sharing a residue mod p)
produce *indeterminate groups* in the result rather than silently guessing.

From :data:`~repro.arith.roots.VECTOR_CROSSOVER` log entries on, on a
field whose products fit in ``uint64``, the log's residues are a numpy
array: a sort yields the distinct ones, a boolean index the roots, and one
``searchsorted`` the entries at a root.  Shorter logs, and every log on a
wider field, stay in Python lists.  Either way Python touches only the
roots and their entries, and deflation gives each root's multiplicity.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress
from typing import Sequence

import numpy as np

from repro.arith.newton import polynomial_from_power_sums
from repro.arith.polynomial import Poly
from repro.arith.roots import (
    VECTOR_CROSSOVER,
    deflate_root,
    find_all_roots,
    roots_among_candidates,
)
from repro.errors import ArithmeticDomainError
from repro.quack.base import DecodeResult, DecodeStatus
from repro.quack.power_sum import PowerSumQuack


def decode_delta(delta: PowerSumQuack, sent_log: Sequence[int],
                 method: str = "candidates") -> DecodeResult:
    """Decode a difference quACK against the sender's log.

    Args:
        delta: ``sent_quack - received_quack``.
        sent_log: the identifiers the sender transmitted and has not yet
            retired, in any order, duplicates allowed.
        method: ``"candidates"`` or ``"factor"``.

    Returns:
        A :class:`DecodeResult`; ``result.missing`` are identifiers drawn
        from ``sent_log``.  A threshold overrun or an inconsistent
        difference is a failure status, not an exception.
    """
    if method not in ("candidates", "factor"):
        raise ArithmeticDomainError(
            f"unknown decode method {method!r}; expected 'candidates' "
            f"or 'factor'"
        )
    if isinstance(sent_log, np.ndarray):
        sent_log = sent_log.tolist()   # numpy scalars wrap in the arithmetic
    m = delta.count
    if m == 0:
        # Zero count with nonzero sums: the counter wrapped a full cycle
        # or the quACKs are unrelated.
        return (DecodeResult(status=DecodeStatus.INCONSISTENT,
                             num_missing=m)
                if any(delta.power_sums) else DecodeResult())
    if m > delta.threshold:
        return DecodeResult(status=DecodeStatus.THRESHOLD_EXCEEDED,
                            num_missing=m)
    if m > len(sent_log):
        # More missing than the log holds: the count difference wrapped.
        return DecodeResult(status=DecodeStatus.INCONSISTENT, num_missing=m)

    field = delta.field
    poly = polynomial_from_power_sums(field, delta.power_sums[:m])
    residues = (field.reduce_array(sent_log)
                if field.vectorized and len(sent_log) >= VECTOR_CROSSOVER
                else [x % field.modulus for x in sent_log])
    root_counts = _find_roots(poly, residues, method)
    # A polynomial that does not split into linear factors, or roots
    # the log cannot cover: a corrupt difference, a wrapped count, or
    # quACKs from different sessions.
    result = (_match_roots_to_log(root_counts, sent_log, residues, m)
              if sum(root_counts.values()) == m else None)
    if result is None:
        return DecodeResult(status=DecodeStatus.INCONSISTENT, num_missing=m)
    return result


def _find_roots(poly: Poly, residues: np.ndarray | list[int],
                method: str) -> Counter:
    """Roots of ``poly`` with multiplicity, as residues mod p."""
    if method == "factor":
        return find_all_roots(poly)
    # Candidates path: evaluate at the distinct residues present in the log,
    # then recover each root's multiplicity by deflation.
    if isinstance(residues, np.ndarray):
        ordered = np.sort(residues)   # np.unique hashes: 10x slower here
        distinct = ordered[np.append(True, ordered[1:] != ordered[:-1])]
        roots = distinct[roots_among_candidates(poly, distinct)].tolist()
    else:
        distinct = sorted(set(residues))
        roots = compress(distinct, roots_among_candidates(poly, distinct))
    root_counts = Counter()
    work = poly
    for root in roots:
        work, root_counts[root] = deflate_root(work, root)
    return root_counts


def _match_roots_to_log(root_counts: Counter, sent_log: list[int],
                        residues: np.ndarray | list[int],
                        m: int) -> DecodeResult | None:
    """Map root residues to the log entries at them, flagging collisions.

    Returns None when some root cannot be covered by the log (an
    inconsistency the caller reports).
    """
    if isinstance(residues, np.ndarray):
        roots = np.array(sorted(root_counts), dtype=np.uint64)
        at = np.searchsorted(roots, residues) % len(roots)  # past the end: 0
        hits = np.flatnonzero(roots[at] == residues)
        entries = zip(residues[hits].tolist(),
                      [sent_log[index] for index in hits.tolist()])
    else:
        entries = [(residue, identifier) for residue, identifier
                   in zip(residues, sent_log) if residue in root_counts]
    groups: dict[int, list[int]] = {}
    for residue, identifier in entries:
        groups.setdefault(residue, []).append(identifier)

    missing: list[int] = []
    indeterminate: list[tuple[tuple[int, ...], int]] = []
    for residue, multiplicity in sorted(root_counts.items()):
        group = groups.get(residue, ())
        if len(group) < multiplicity:
            return None
        candidates = sorted(set(group))
        if len(candidates) == 1:
            # All copies share one raw identifier: any `multiplicity` of
            # them are interchangeable, so the result is determinate.
            missing.extend(candidates * multiplicity)
        elif len(group) == multiplicity:
            # Every packet in the collision group is missing.
            missing.extend(group)
        else:
            # Some, but not all, of several distinct identifiers sharing a
            # residue are missing: their fates are indeterminate.
            indeterminate.append((tuple(candidates), multiplicity))
    return DecodeResult(missing=tuple(sorted(missing)),
                        status=DecodeStatus.OK,
                        num_missing=m,
                        indeterminate=tuple(indeterminate))
