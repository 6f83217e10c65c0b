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

   * ``"candidates"`` -- evaluate the polynomial at every identifier in the
     sender's log (vectorized); best for small logs (Section 4.2);
   * ``"factor"`` -- factor the polynomial directly, cost independent of
     the log length ``n`` (Section 4.3);
   * ``"auto"`` -- pick by a crossover heuristic.

Identifier collisions (two distinct log entries sharing a residue mod p)
produce *indeterminate groups* in the result rather than silently guessing.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Sequence

from repro.arith.newton import polynomial_from_power_sums
from repro.arith.polynomial import Poly
from repro.arith.roots import (
    deflate_root,
    find_all_roots,
    roots_among_candidates,
)
from repro.obs import PROFILER
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
    outer = PROFILER.begin("quack.decode")
    try:
        return _decode_delta(delta, sent_log, method, raise_on_failure)
    finally:
        if outer:
            PROFILER.end("quack.decode", outer)


def _decode_delta(delta: PowerSumQuack, sent_log: Sequence[int],
                  method: str, raise_on_failure: bool) -> DecodeResult:
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
        started = PROFILER.begin("quack.newton")
        poly = polynomial_from_power_sums(delta.field, delta.power_sums[:m])
        if started:
            PROFILER.end("quack.newton", started)
        started = PROFILER.begin("quack.rootfind")
        root_counts = _find_roots(poly, sent_log, _resolve_method(method, m, sent_log))
        if started:
            PROFILER.end("quack.rootfind", started)
        if sum(root_counts.values()) != m:
            failure = InconsistentQuackError(
                "the power-sum polynomial does not split into linear "
                "factors over the field; the quACK difference is corrupt "
                "or its count wrapped around"
            )
        else:
            result = _match_roots_to_log(root_counts, sent_log, delta, m)
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


def _find_roots(poly: Poly, sent_log: Sequence[int], method: str) -> Counter:
    """Roots of ``poly`` with multiplicity, as residues mod p."""
    if method == "factor":
        return find_all_roots(poly)
    # Candidates path: evaluate at the distinct residues present in the log,
    # then recover each root's multiplicity by deflation.
    p = poly.field.modulus
    distinct = sorted({identifier % p for identifier in sent_log})
    mask = roots_among_candidates(poly, distinct)
    roots = Counter()
    work = poly
    for residue, is_root in zip(distinct, mask):
        if is_root:
            work, roots[residue] = deflate_root(work, residue)
    return roots


def _match_roots_to_log(root_counts: Counter, sent_log: Sequence[int],
                        delta: PowerSumQuack, m: int) -> DecodeResult | None:
    """Map root residues back to log identifiers, flagging collisions.

    Returns None when some root cannot be covered by the log (an
    inconsistency the caller reports).
    """
    p = delta.field.modulus
    by_residue: dict[int, Counter] = defaultdict(Counter)
    for identifier in sent_log:
        by_residue[identifier % p][identifier] += 1

    missing: list[int] = []
    indeterminate: list[tuple[tuple[int, ...], int]] = []
    for residue, multiplicity in sorted(root_counts.items()):
        group = by_residue.get(residue)
        if group is None or sum(group.values()) < multiplicity:
            return None
        candidates = sorted(group)
        if len(candidates) == 1:
            # All copies share one raw identifier: any `multiplicity` of
            # them are interchangeable, so the result is determinate.
            missing.extend(candidates * multiplicity)
        elif sum(group.values()) == multiplicity:
            # Every packet in the collision group is missing.
            for identifier, copies in sorted(group.items()):
                missing.extend([identifier] * copies)
        else:
            # Some, but not all, of several distinct identifiers sharing a
            # residue are missing: their fates are indeterminate.
            indeterminate.append((tuple(candidates), multiplicity))
    return DecodeResult(missing=tuple(sorted(missing)),
                        status=DecodeStatus.OK,
                        num_missing=m,
                        indeterminate=tuple(indeterminate))
