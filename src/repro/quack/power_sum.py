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

The value of a quACK is ``_sums`` and ``_count`` plus the fold of the
identifiers in ``_pending``.  :meth:`~PowerSumQuack.insert` folds
eagerly for the first :data:`BATCH_CROSSOVER` identifiers since the
last read and only records the rest; every read
(:attr:`~PowerSumQuack.power_sums`, :attr:`~PowerSumQuack.count`,
:meth:`~PowerSumQuack.copy`, ``-``, ``==``, ``repr`` and, through
``power_sums``, the wire encoder) folds the recorded batch first, in
one numpy pass.  The stored sums are only *congruent* to the power sums
mod ``p``: a fold adds or subtracts each power as it is, and every read
but ``-`` and ``copy`` reduces them and stores the reduced list back.
Code that writes ``_sums`` or ``_count`` directly (the wire decoder,
the bank's snapshot, the chaos adversaries) does so on a quACK just
built or just read, with nothing recorded, and need only keep the sums
congruent.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.arith.field import PrimeField, field_for_bits
from repro.errors import ArithmeticDomainError
from repro.quack.base import DecodeResult, Quack, QuackScheme

#: Default size of the wrapped packet counter, in bits (Table 2 uses c=16).
DEFAULT_COUNT_BITS = 16
#: The bulk fold takes fewer identifiers than this one by one, and
#: ``insert`` folds this many eagerly after each read before it starts
#: recording.  Measured at t=20, b=32 on a 2-vCPU x86-64 VM (CPython
#: 3.11, numpy 2.4): the loop 4.3 us/id at every size; the numpy table
#: 4.7 / 3.9 / 2.6 / 2.3 / 2.0 / 1.1 us/id in batches of 8 / 16 / 24 /
#: 28 / 32 / 64 (at t=8 it also overtakes at 16).  The switch sits at 28,
#: not 16, so that a quACK read every few identifiers (the flow table's
#: emits, the ACK-reduction proxy's) never records: its reads stay free
#: of calls, and its inserts fold exactly as before.
BATCH_CROSSOVER = 28
#: ``insert`` folds its record in place once it holds this many
#: identifiers, so a quACK that is never read stays bounded and the
#: fold's ``t x n`` uint64 table stays at 655 kB for t=20.
PENDING_CAP = 4096


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

    __slots__ = ("field", "threshold", "bits", "count_bits", "_sums", "_count",
                 "_pending", "_room")

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
        #: Identifiers recorded since the last read, None while eager.
        self._pending: list[int] | None = None
        #: Inserts left before ``insert`` starts recording (eager) or
        #: folds its record in place (recording).
        self._room = BATCH_CROSSOVER

    # -- construction ---------------------------------------------------------

    def insert(self, identifier: int) -> None:
        """Fold one identifier in: one multiply-add per power sum.

        This is the ~100 ns/packet amortized construction cost the paper
        reports (Section 4.2) -- proportional to ``t``, independent of how
        many packets were folded before.  The sums are left unreduced (see
        the module docstring), and of the powers ``x, x**2, ...`` only
        every second one is reduced: the one between is a product below
        ``p**2``, which the sums take as it is.

        Past :data:`BATCH_CROSSOVER` inserts since the last read the
        identifier is only recorded, and the next read folds the batch
        (the module docstring).  Neither path makes a call.
        """
        pending = self._pending
        if pending is not None:
            pending += (identifier,)    # in place: ``append`` is a call
            self._room -= 1
            if not self._room:
                self._fold(pending)
                self._pending, self._room = [], PENDING_CAP
            return
        p = self.field.modulus
        x = identifier % p
        sums = self._sums
        power = x
        for i in range(1, self.threshold - 1, 2):
            high = power * x
            sums[i - 1] += power
            sums[i] += high
            power = high * x % p
        if self.threshold & 1:
            sums[-1] += power
        else:
            sums[-2] += power
            sums[-1] += power * x
        self._count = (self._count + 1) & ((1 << self.count_bits) - 1)
        self._room -= 1
        if not self._room:
            self._pending, self._room = [], PENDING_CAP

    def remove(self, identifier: int) -> None:
        """Unfold one identifier (used when the sender retires decoded
        losses from its own power sums, Section 3.3 "Resetting the
        threshold"): :meth:`insert` with each power subtracted."""
        p = self.field.modulus
        x = identifier % p
        sums = self._sums
        power = x
        for i in range(1, self.threshold - 1, 2):
            high = power * x
            sums[i - 1] -= power
            sums[i] -= high
            power = high * x % p
        if self.threshold & 1:
            sums[-1] -= power
        else:
            sums[-2] -= power
            sums[-1] -= power * x
        self._count = (self._count - 1) & ((1 << self.count_bits) - 1)

    def insert_many(self, identifiers: Iterable[int] | np.ndarray) -> None:
        """Bulk insert, equivalent to repeated insert: the bulk fold.

        Conversion to an array is left to the field: naive ``np.asarray``
        on a list of mixed-magnitude Python ints silently promotes to
        float64 above 2**63, corrupting 64-bit identifiers.
        """
        self._fold(identifiers if isinstance(identifiers, (list, np.ndarray))
                   else list(identifiers))

    def _fold(self, ids: list[int] | np.ndarray) -> None:
        """The one bulk fold, of ``insert_many`` and of every read that
        finds identifiers recorded: the loop of :meth:`insert` below
        :data:`BATCH_CROSSOVER` identifiers and on fields too wide for
        uint64 products, one numpy power table from there on."""
        n = len(ids)
        sums = self._sums
        if n >= BATCH_CROSSOVER and self.field.vectorized:
            batch = self.field.batch_power_sums(ids, self.threshold)
            for i, value in enumerate(batch):
                sums[i] += value
        else:
            if isinstance(ids, np.ndarray):
                ids = ids.tolist()  # numpy scalars overflow below
            p = self.field.modulus
            pairs = range(1, self.threshold - 1, 2)
            odd = self.threshold & 1
            for identifier in ids:
                x = identifier % p
                power = x
                for i in pairs:
                    high = power * x
                    sums[i - 1] += power
                    sums[i] += high
                    power = high * x % p
                if odd:
                    sums[-1] += power
                else:
                    sums[-2] += power
                    sums[-1] += power * x
        self._count = (self._count + n) & ((1 << self.count_bits) - 1)

    # -- state ------------------------------------------------------------------

    @property
    def power_sums(self) -> tuple[int, ...]:
        """The current ``t`` power sums, lowest order first."""
        if self._pending is not None:
            self._fold(self._pending)
            self._pending = None
        self._room = BATCH_CROSSOVER
        p = self.field.modulus
        sums = self._sums
        for i in range(self.threshold):
            sums[i] %= p
        return tuple(sums)

    @property
    def count(self) -> int:
        """The wrapped ``c``-bit packet counter."""
        if self._pending is not None:
            self._fold(self._pending)
            self._pending = None
        self._room = BATCH_CROSSOVER
        return self._count

    def copy(self) -> "PowerSumQuack":
        if self._pending is not None:
            self._fold(self._pending)
            self._pending = None
        self._room = BATCH_CROSSOVER
        # Slot by slot: the parameters were validated at construction.
        clone = object.__new__(PowerSumQuack)
        clone.field = self.field
        clone.threshold = self.threshold
        clone.bits = self.bits
        clone.count_bits = self.count_bits
        clone._sums = self._sums[:]
        clone._count = self._count
        clone._pending = None
        clone._room = BATCH_CROSSOVER
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
        for quack in (self, other):
            if quack._pending is not None:
                quack._fold(quack._pending)
                quack._pending = None
            quack._room = BATCH_CROSSOVER
        delta = PowerSumQuack(self.threshold, self.bits, self.count_bits,
                              field=self.field)
        p = self.field.modulus
        delta._sums = [(a - b) % p for a, b in zip(self._sums, other._sums)]
        delta._count = (self._count - other._count) & ((1 << self.count_bits) - 1)
        return delta

    # -- decoding ---------------------------------------------------------------

    def decode(self, sent_log: Sequence[int]) -> DecodeResult:
        """One-shot decode: treat ``self`` as the receiver's quACK.

        Builds the sender's power sums from ``sent_log``, subtracts, and
        decodes (:func:`repro.quack.decoder.decode_delta`).
        """
        from repro.quack.decoder import decode_delta  # cycle-free at runtime

        sender = PowerSumQuack(self.threshold, self.bits, self.count_bits,
                               field=self.field)
        sender.insert_many(sent_log)
        return decode_delta(sender - self, sent_log)

    def __eq__(self, other: object) -> bool:
        if not (isinstance(other, PowerSumQuack)
                and other.field == self.field
                and other.threshold == self.threshold
                and other.count_bits == self.count_bits):
            return False
        p = self.field.modulus
        for quack in (self, other):
            if quack._pending is not None:
                quack._fold(quack._pending)
                quack._pending = None
            quack._room = BATCH_CROSSOVER
            sums = quack._sums
            for i in range(self.threshold):
                sums[i] %= p
        return other._count == self._count and other._sums == self._sums

    def __hash__(self) -> int:  # pragma: no cover - quacks are mutable
        raise TypeError("PowerSumQuack is mutable and unhashable")

    def __repr__(self) -> str:
        sums = self.power_sums      # folds what was recorded, count included
        return (f"PowerSumQuack(t={self.threshold}, b={self.bits}, "
                f"count={self._count}, sums={list(sums)!r})")
