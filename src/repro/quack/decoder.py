"""Decoding power-sum quACK differences into missing packet multisets.

The sender holds a *difference* quACK ``delta = sent_quack - received_quack``
whose power sums are exactly those of the missing multiset ``S \\ R`` and
whose count is the wrapped number of missing packets ``m`` (Section 3.2).
Decoding then proceeds:

1. ``m == 0`` with all-zero sums -> nothing is missing;
2. ``m > t`` -> :class:`~repro.errors.ThresholdExceededError` (not enough
   equations; the session must reset);
3. otherwise, Newton's identities turn the first ``m`` power sums into the
   monic polynomial whose roots (with multiplicity) are the missing
   identifiers, and a root-finding strategy recovers them:

   * ``"candidates"`` -- evaluate the polynomial at every distinct residue
     in the sender's log; best for small logs (Section 4.2);
   * ``"factor"`` -- factor the polynomial directly, cost independent of
     the log length ``n`` (Section 4.3);
   * ``"auto"`` -- pick by a crossover heuristic.

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
from repro.errors import (
    ArithmeticDomainError,
    InconsistentQuackError,
    ThresholdExceededError,
)
from repro.quack.base import DecodeResult, DecodeStatus
from repro.quack.power_sum import PowerSumQuack

#: With more log entries than this per missing packet, "auto" switches to
#: direct factorization (whose cost does not grow with the log).
AUTO_FACTOR_LOG_FACTOR = 2048


def decode_delta(delta: PowerSumQuack, sent_log: Sequence[int],
                 method: str = "auto",
                 raise_on_failure: bool = False) -> DecodeResult:
    """Decode a difference quACK against the sender's log.

    Args:
        delta: ``sent_quack - received_quack``.
        sent_log: the identifiers the sender transmitted and has not yet
            retired, in any order, duplicates allowed.
        method: ``"candidates"``, ``"factor"``, or ``"auto"``.
        raise_on_failure: raise :class:`ThresholdExceededError` /
            :class:`InconsistentQuackError` instead of returning a result
            with a failure status.

    Returns:
        A :class:`DecodeResult`; ``result.missing`` are identifiers drawn
        from ``sent_log``.
    """
    if method not in ("auto", "candidates", "factor"):
        raise ArithmeticDomainError(
            f"unknown decode method {method!r}; expected 'auto', "
            f"'candidates', or 'factor'"
        )
    if isinstance(sent_log, np.ndarray):
        sent_log = sent_log.tolist()   # numpy scalars wrap in the arithmetic
    m = delta.count
    failure: Exception | None = None
    result: DecodeResult | None = None

    if m == 0:
        if any(delta.power_sums):
            failure = InconsistentQuackError(
                "count difference is zero but power sums are not; the "
                "counter wrapped a full cycle or the quACKs are unrelated"
            )
        else:
            result = DecodeResult()
    elif m > delta.threshold:
        failure = ThresholdExceededError(m, delta.threshold)
    elif m > len(sent_log):
        failure = InconsistentQuackError(
            f"{m} packets reported missing but the log only holds "
            f"{len(sent_log)}; the count difference wrapped around"
        )

    if failure is None and result is None:
        field = delta.field
        poly = polynomial_from_power_sums(field, delta.power_sums[:m])
        residues = (field.reduce_array(sent_log)
                    if field.vectorized and len(sent_log) >= VECTOR_CROSSOVER
                    else [x % field.modulus for x in sent_log])
        root_counts = _find_roots(poly, residues, _resolve_method(method, m, sent_log))
        if sum(root_counts.values()) != m:
            failure = InconsistentQuackError(
                "the power-sum polynomial does not split into linear "
                "factors over the field; the quACK difference is corrupt "
                "or its count wrapped around"
            )
        else:
            result = _match_roots_to_log(root_counts, sent_log, residues, m)
            if result is None:
                failure = InconsistentQuackError(
                    "decoded identifiers are not present (often enough) in "
                    "the sender log; the quACKs belong to different sessions"
                )

    if failure is not None:
        if raise_on_failure:
            raise failure
        status = (DecodeStatus.THRESHOLD_EXCEEDED
                  if isinstance(failure, ThresholdExceededError)
                  else DecodeStatus.INCONSISTENT)
        return DecodeResult(status=status, num_missing=m)
    assert result is not None
    return result


def _resolve_method(method: str, m: int, sent_log: Sequence[int]) -> str:
    if method != "auto":
        return method
    return "factor" if len(sent_log) > AUTO_FACTOR_LOG_FACTOR * max(m, 1) \
        else "candidates"


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
