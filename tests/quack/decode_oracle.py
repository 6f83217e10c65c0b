"""The candidates decode as it was: the differential oracle.

:func:`repro.quack.decoder.decode_delta` picks its roots in numpy from
a long log on a ``uint64`` field and in plain Python otherwise, and
groups only the log entries whose residue is a root.  The decode it
replaced lives on here, outside ``src/``, verbatim: every distinct
residue of the log collected by a set and a sort, the polynomial
evaluated at all of them by numpy Horner, each root deflated, and a
``Counter`` of identifiers built for every residue of the log before
the roots are matched.  It shares only the arithmetic (Newton's
identities, deflation, factoring) with the decoder it checks, so
whatever the two disagree on is a defect of root selection or matching.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Sequence

import numpy as np

from repro.arith.newton import polynomial_from_power_sums
from repro.arith.polynomial import Poly
from repro.arith.roots import deflate_root, find_all_roots
from repro.errors import InconsistentQuackError, ThresholdExceededError
from repro.quack.base import DecodeResult, DecodeStatus
from repro.quack.decoder import AUTO_FACTOR_LOG_FACTOR
from repro.quack.power_sum import PowerSumQuack


def reference_decode(delta: PowerSumQuack, sent_log: Sequence[int],
                     method: str = "auto",
                     raise_on_failure: bool = False) -> DecodeResult:
    """``decode_delta`` before root selection followed the missing set."""
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
        poly = polynomial_from_power_sums(delta.field, delta.power_sums[:m])
        root_counts = _find_roots(poly, sent_log, _resolve_method(method, m, sent_log))
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
    mask = np.asarray(poly.eval_batch(distinct) == 0)
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
