"""The candidates decode as it was: the differential oracle.

:func:`repro.quack.decoder.decode_delta` picks its roots in numpy from
a long log on a ``uint64`` field and in plain Python otherwise, and
groups only the log entries whose residue is a root.  The decode it
replaced lives on here, outside ``src/``, with its root selection and
matching verbatim: every distinct residue of the log collected by a set
and a sort, the polynomial evaluated at all of them by numpy Horner,
each root deflated, and a ``Counter`` of identifiers built for every
residue of the log before the roots are matched.  It shares only the
arithmetic (Newton's identities, deflation, factoring) with the decoder
it checks, so whatever the two disagree on is a defect of root
selection or matching.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Sequence

import numpy as np

from repro.arith.newton import polynomial_from_power_sums
from repro.arith.polynomial import Poly
from repro.arith.roots import deflate_root, find_all_roots
from repro.quack.base import DecodeResult, DecodeStatus
from repro.quack.power_sum import PowerSumQuack


def reference_decode(delta: PowerSumQuack, sent_log: Sequence[int],
                     method: str = "candidates") -> DecodeResult:
    """``decode_delta`` before root selection followed the missing set."""
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
        # The count difference wrapped around.
        return DecodeResult(status=DecodeStatus.INCONSISTENT, num_missing=m)
    poly = polynomial_from_power_sums(delta.field, delta.power_sums[:m])
    root_counts = _find_roots(poly, sent_log, method)
    # A polynomial that does not split, or roots absent from the log:
    # a corrupt difference, a wrapped count, or another session's quACK.
    result = (_match_roots_to_log(root_counts, sent_log, delta, m)
              if sum(root_counts.values()) == m else None)
    if result is None:
        return DecodeResult(status=DecodeStatus.INCONSISTENT, num_missing=m)
    return result


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
