"""An IBLT-based quACK (extension X1).

The paper's power-sum construction is adapted from Eppstein and
Goodrich's straggler identification, which offers a *second* data
structure for the same problem: the invertible Bloom lookup table
(IBLT).  The paper's Section 5 asks "what similar protocol-agnostic
digests could we design?" -- this module answers with a working IBLT
quACK so the trade-off can be measured (benchmarks/test_ablation_iblt):

* **power sums**: t*b + c bits (82 B at t=20/b=32), O(t) work per packet,
  O(n*m) or O(m^2 log p) decode, handles multisets, hard failure when
  m > t.
* **IBLT**: ~1.5*t cells of (count, idSum, hashSum) -- several times
  larger on the wire -- but O(k)=O(3) work per packet and O(cells)
  peeling decode, independent of both n and m.  Decoding is
  probabilistic (peeling can stall near capacity) and *duplicate
  identifiers are not supported*: a multiset difference containing the
  same identifier twice is reported as a failure rather than a wrong
  answer.

Cells hold additive sums modulo 2**64 (not XORs) so that subtraction
produces signed counts: after ``sender - receiver``, cells with positive
pure counts peel to missing packets (S \\ R) and negative pure counts to
unexpected extras (R \\ S, an inconsistency for a quACK).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import ArithmeticDomainError
from repro.quack.base import DecodeResult, DecodeStatus, Quack, QuackScheme

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1

#: Cells per expected difference.  Asymptotically k=4 peels at ~1.3x
#: overhead, but quACK-sized tables (tens of cells) need more headroom:
#: empirically, 2.0x with k=4 succeeds on >99% of at-capacity differences
#: (see tests/quack/test_iblt.py::test_success_rate_at_capacity).
CELLS_PER_DIFF = 2.0

#: Number of hash functions (partitioned: one cell per partition).
DEFAULT_HASH_COUNT = 4


@dataclass
class _Cell:
    count: int = 0
    id_sum: int = 0
    hash_sum: int = 0

    def is_empty(self) -> bool:
        return self.count == 0 and self.id_sum == 0 and self.hash_sum == 0


class IbltQuack(Quack):
    """Receiver-side IBLT accumulator with sender-side peeling decode.

    Args:
        threshold: like the power-sum ``t`` -- the design capacity in
            missing packets.  Peeling succeeds with high probability up
            to this difference size and degrades (reported, never wrong)
            beyond it.
        bits: identifier width, for wire-size accounting (identifiers are
            stored as full 64-bit sums internally).
        hash_count: number of partitions ``k``.
        salt: seeds the cell-index/checksum hash; both ends of a session
            must use the same value.
    """

    scheme = QuackScheme.POWER_SUM  # shares the frame's numeric space: not
    # registered in the wire format; the IBLT is an in-library extension.

    def __init__(self, threshold: int, bits: int = 32,
                 hash_count: int = DEFAULT_HASH_COUNT,
                 salt: bytes = b"iblt-quack") -> None:
        if threshold < 1:
            raise ArithmeticDomainError(f"threshold must be >= 1, got {threshold}")
        if hash_count < 2:
            raise ArithmeticDomainError(f"need >= 2 hash functions, got {hash_count}")
        self.threshold = threshold
        self.bits = bits
        self.hash_count = hash_count
        self.salt = salt
        per_partition = max(2, int(round(threshold * CELLS_PER_DIFF
                                         / hash_count)) + 1)
        self.partition_size = per_partition
        self.cells = [_Cell() for _ in range(per_partition * hash_count)]
        self._count = 0

    # -- hashing ---------------------------------------------------------

    def _digest(self, identifier: int) -> bytes:
        return hashlib.blake2b(
            (identifier & _MASK64).to_bytes(8, "big"),
            digest_size=16, key=self.salt,
        ).digest()

    def _cells_and_checksum(self, identifier: int) -> tuple[list[int], int]:
        digest = self._digest(identifier)
        indices = []
        for k in range(self.hash_count):
            slot = int.from_bytes(digest[4 * k:4 * k + 4], "big") \
                % self.partition_size
            indices.append(k * self.partition_size + slot)
        checksum = int.from_bytes(digest[12:16], "big")
        return indices, checksum

    # -- construction ------------------------------------------------------

    def insert(self, identifier: int) -> None:
        self._apply(identifier, +1)
        self._count += 1

    def remove(self, identifier: int) -> None:
        self._apply(identifier, -1)
        self._count -= 1

    def insert_many(self, identifiers: Iterable[int]) -> None:
        for identifier in identifiers:
            self.insert(int(identifier))

    def _apply(self, identifier: int, sign: int) -> None:
        indices, checksum = self._cells_and_checksum(identifier)
        for index in indices:
            cell = self.cells[index]
            cell.count += sign
            cell.id_sum = (cell.id_sum + sign * (identifier & _MASK64)) \
                & _MASK64
            cell.hash_sum = (cell.hash_sum + sign * checksum) & _MASK32

    @property
    def count(self) -> int:
        return self._count

    def copy(self) -> "IbltQuack":
        clone = IbltQuack(self.threshold, self.bits, hash_count=self.hash_count,
                          salt=self.salt)
        clone.partition_size = self.partition_size
        clone.cells = [_Cell(c.count, c.id_sum, c.hash_sum)
                       for c in self.cells]
        clone._count = self._count
        return clone

    def wire_size_bits(self) -> int:
        """count(16) + per-cell (count 16 + idSum b + hashSum 32) bits."""
        per_cell = 16 + self.bits + 32
        return 16 + per_cell * len(self.cells)

    # -- sender-side algebra ---------------------------------------------------

    def _check_compatible(self, other: "IbltQuack") -> None:
        if (not isinstance(other, IbltQuack)
                or other.partition_size != self.partition_size
                or other.hash_count != self.hash_count
                or other.salt != self.salt):
            raise ArithmeticDomainError("incompatible IBLT parameters")

    def __sub__(self, other: "IbltQuack") -> "IbltQuack":
        self._check_compatible(other)
        delta = self.copy()
        for cell, theirs in zip(delta.cells, other.cells):
            cell.count -= theirs.count
            cell.id_sum = (cell.id_sum - theirs.id_sum) & _MASK64
            cell.hash_sum = (cell.hash_sum - theirs.hash_sum) & _MASK32
        delta._count = self._count - other._count
        return delta

    # -- decoding ----------------------------------------------------------------

    def peel(self) -> tuple[list[int], list[int], bool]:
        """Peel a *difference* table.

        Returns ``(positives, negatives, complete)``: identifiers with
        net positive count (S \\ R), net negative count (R \\ S), and
        whether the table emptied (True) or peeling stalled (False --
        overloaded table or duplicate identifiers in the difference).
        Operates on a copy; ``self`` is unmodified.
        """
        work = self.copy()
        positives: list[int] = []
        negatives: list[int] = []
        progress = True
        while progress:
            progress = False
            for cell in list(work.cells):
                sign = 1 if cell.count == 1 else -1 if cell.count == -1 else 0
                if sign == 0:
                    continue
                identifier = cell.id_sum if sign == 1 \
                    else (-cell.id_sum) & _MASK64
                _indices, checksum = work._cells_and_checksum(identifier)
                expected = checksum if sign == 1 else (-checksum) & _MASK32
                if cell.hash_sum != expected:
                    continue  # not pure; corrupted by co-resident items
                (positives if sign == 1 else negatives).append(identifier)
                work._apply(identifier, -sign)
                progress = True
        complete = all(cell.is_empty() for cell in work.cells)
        return sorted(positives), sorted(negatives), complete

    def decode(self, sent_log: Sequence[int]) -> DecodeResult:
        """One-shot decode: treat ``self`` as the receiver's table.

        Builds the sender table from ``sent_log``, subtracts, peels.
        Failures (stalled peeling, negatives, identifiers absent from the
        log, duplicates in the difference) all surface as INCONSISTENT --
        the IBLT cannot distinguish them the way power sums can.
        """
        sender = IbltQuack(self.threshold, self.bits,
                           hash_count=self.hash_count, salt=self.salt)
        sender.partition_size = self.partition_size
        sender.cells = [_Cell() for _ in range(len(self.cells))]
        sender.insert_many(int(x) for x in sent_log)
        delta = sender - self
        missing, extras, complete = delta.peel()
        expected_missing = delta.count
        if not complete or extras or len(missing) != expected_missing:
            return DecodeResult(status=DecodeStatus.INCONSISTENT,
                                num_missing=max(expected_missing, 0))
        log_set = {int(x) for x in sent_log}
        if any(identifier not in log_set for identifier in missing):
            return DecodeResult(status=DecodeStatus.INCONSISTENT,
                                num_missing=expected_missing)
        return DecodeResult(missing=tuple(missing),
                            num_missing=expected_missing)
