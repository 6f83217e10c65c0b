"""The power-sum quACK (the paper's core contribution, Section 3).

The receiver maintains ``t`` running power sums of the identifiers it has
received, modulo the largest prime ``p`` expressible in ``b`` bits, plus a
``c``-bit count.  The sender maintains the same state over the identifiers
it has *sent* (amortizing construction to ~one modular multiply-add per
power sum per packet), subtracts the receiver's quACK on arrival, and
decodes the missing multiset from the power-sum differences via Newton's
identities and root finding.

Two usage styles are supported:

* **one-shot** (the interface of Fig. 2): ``receiver_quack.decode(sent_log)``
  builds the sender's power sums from the log internally;
* **incremental** (the sidecar protocols): both sides keep a
  :class:`PowerSumQuack`; the sender computes ``delta = mine - theirs``
  and calls :func:`repro.quack.decoder.decode_delta`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.arith.field import PrimeField, field_for_bits
from repro.errors import ArithmeticDomainError
from repro.quack.base import DecodeResult, Quack, QuackScheme

#: Default size of the wrapped packet counter, in bits (Table 2 uses c=16).
DEFAULT_COUNT_BITS = 16
#: ``insert_many`` folds fewer identifiers than this one by one.  Measured
#: at t=20, b=32: scalar 4.4 us/id; numpy 8.8 / 4.5 / 2.3 / 1.2 us/id in
#: batches of 8 / 16 / 32 / 64.
BATCH_CROSSOVER = 16


class PowerSumQuack(Quack):
    """Accumulator of the first ``threshold`` power sums of identifiers.

    Args:
        threshold: ``t``, the maximum number of missing packets the quACK
            can decode (Section 3.2, parameter 1).
        bits: ``b``, the identifier width in bits (parameter 2).  The
            modulus is the largest prime below ``2**bits``; identifiers in
            ``[p, 2**bits)`` alias small residues, an effect folded into
            the documented collision probability.
        count_bits: ``c``, the width of the wrapped counter.  Must satisfy
            ``2**count_bits > threshold`` so a legal count difference is
            unambiguous.
    """

    scheme = QuackScheme.POWER_SUM

    __slots__ = ("field", "threshold", "bits", "count_bits", "_sums", "_count")

    def __init__(self, threshold: int, bits: int = 32,
                 count_bits: int = DEFAULT_COUNT_BITS,
                 field: PrimeField | None = None) -> None:
        if threshold < 1:
            raise ArithmeticDomainError(f"threshold must be >= 1, got {threshold}")
        if count_bits < 1 or (1 << count_bits) <= threshold:
            raise ArithmeticDomainError(
                f"count_bits={count_bits} cannot express differences up to "
                f"threshold={threshold}"
            )
        self.field = field if field is not None else field_for_bits(bits)
        self.threshold = threshold
        self.bits = bits
        self.count_bits = count_bits
        self._sums = [0] * threshold
        self._count = 0

    # -- construction ---------------------------------------------------------

    def insert(self, identifier: int) -> None:
        """Fold one identifier in: one multiply-add per power sum.

        This is the ~100 ns/packet amortized construction cost the paper
        reports (Section 4.2) -- proportional to ``t``, independent of how
        many packets were folded before.
        """
        p = self.field.modulus
        x = identifier % p
        power = x
        sums = self._sums
        for i in range(self.threshold):
            sums[i] = (sums[i] + power) % p
            power = (power * x) % p
        self._count = (self._count + 1) & ((1 << self.count_bits) - 1)

    def remove(self, identifier: int) -> None:
        """Unfold one identifier (used when the sender retires decoded
        losses from its own power sums, Section 3.3 "Resetting the
        threshold")."""
        p = self.field.modulus
        x = identifier % p
        power = x
        sums = self._sums
        for i in range(self.threshold):
            sums[i] = (sums[i] - power) % p
            power = (power * x) % p
        self._count = (self._count - 1) & ((1 << self.count_bits) - 1)

    def insert_many(self, identifiers: Iterable[int] | np.ndarray) -> None:
        """Bulk insert, equivalent to repeated insert: the scalar loop
        below :data:`BATCH_CROSSOVER` identifiers, numpy from there on.

        Conversion to an array is left to the field: naive ``np.asarray``
        on a list of mixed-magnitude Python ints silently promotes to
        float64 above 2**63, corrupting 64-bit identifiers.
        """
        ids = identifiers if isinstance(identifiers, (list, np.ndarray)) \
            else list(identifiers)
        if len(ids) < BATCH_CROSSOVER:
            if isinstance(ids, np.ndarray):
                ids = ids.tolist()  # numpy scalars overflow in ``insert``
            for identifier in ids:
                self.insert(identifier)
            return
        batch = self.field.batch_power_sums(ids, self.threshold)
        p = self.field.modulus
        self._sums = [(s + b) % p for s, b in zip(self._sums, batch)]
        self._count = (self._count + len(ids)) & ((1 << self.count_bits) - 1)

    # -- state ------------------------------------------------------------------

    @property
    def power_sums(self) -> tuple[int, ...]:
        """The current ``t`` power sums, lowest order first."""
        return tuple(self._sums)

    @property
    def count(self) -> int:
        """The wrapped ``c``-bit packet counter."""
        return self._count

    def copy(self) -> "PowerSumQuack":
        clone = PowerSumQuack(self.threshold, self.bits, self.count_bits,
                              field=self.field)
        clone._sums = list(self._sums)
        clone._count = self._count
        return clone

    def wire_size_bits(self) -> int:
        """``t*b + c`` bits (Table 2: 20*32 + 16 = 656 bits = 82 bytes)."""
        return self.threshold * self.bits + self.count_bits

    # -- sender-side algebra -----------------------------------------------------

    def _check_compatible(self, other: "PowerSumQuack") -> None:
        if not isinstance(other, PowerSumQuack):
            raise ArithmeticDomainError(
                f"cannot combine PowerSumQuack with {type(other).__name__}"
            )
        if (other.field != self.field or other.threshold != self.threshold
                or other.count_bits != self.count_bits):
            raise ArithmeticDomainError(
                "mismatched quACK parameters: "
                f"(t={self.threshold}, p={self.field.modulus}, c={self.count_bits})"
                f" vs (t={other.threshold}, p={other.field.modulus}, "
                f"c={other.count_bits})"
            )

    def __sub__(self, other: "PowerSumQuack") -> "PowerSumQuack":
        """Difference quACK: power sums of ``mine \\ theirs``.

        The sender computes ``sent_quack - received_quack``; the result's
        power sums are those of the missing multiset and its count is the
        wrapped count difference ``m`` (Section 3.2).  Cumulative sums make
        this resilient to dropped quACKs (Section 3.3): subtracting a
        *later* receiver quACK still yields exactly the outstanding set.
        """
        self._check_compatible(other)
        delta = PowerSumQuack(self.threshold, self.bits, self.count_bits,
                              field=self.field)
        p = self.field.modulus
        delta._sums = [(a - b) % p for a, b in zip(self._sums, other._sums)]
        delta._count = (self._count - other._count) & ((1 << self.count_bits) - 1)
        return delta

    # -- decoding ---------------------------------------------------------------

    def decode(self, sent_log: Sequence[int],
               method: str = "auto") -> DecodeResult:
        """One-shot decode: treat ``self`` as the receiver's quACK.

        Builds the sender's power sums from ``sent_log``, subtracts, and
        decodes.  ``method`` selects the root-finding strategy; see
        :func:`repro.quack.decoder.decode_delta`.
        """
        from repro.quack.decoder import decode_delta  # cycle-free at runtime

        sender = PowerSumQuack(self.threshold, self.bits, self.count_bits,
                               field=self.field)
        sender.insert_many(sent_log)
        return decode_delta(sender - self, sent_log, method=method)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, PowerSumQuack)
                and other.field == self.field
                and other.threshold == self.threshold
                and other.count_bits == self.count_bits
                and other._sums == self._sums
                and other._count == self._count)

    def __hash__(self) -> int:  # pragma: no cover - quacks are mutable
        raise TypeError("PowerSumQuack is mutable and unhashable")

    def __repr__(self) -> str:
        return (f"PowerSumQuack(t={self.threshold}, b={self.bits}, "
                f"count={self._count}, sums={self._sums!r})")
