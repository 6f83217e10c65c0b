"""Common types for quACK implementations.

A *quACK* ("quick ACK") is a concise representation of a multiset of
numbers -- the randomly-encrypted packet identifiers a sidecar has
received -- such that a sender holding the multiset ``S`` of sent
identifiers can recover the missing multiset ``S \\ R`` (paper, Fig. 2):

    Construction:  R -> quACK
    Decoding:      S + quACK -> S \\ R

Three implementations ship with this package:

* :class:`~repro.quack.power_sum.PowerSumQuack` -- the paper's
  contribution, built on modular power sums (Section 3);
* :class:`~repro.quack.strawman.EchoQuack` -- Strawman 1, echo every
  received identifier (extraordinary bandwidth);
* :class:`~repro.quack.strawman.HashQuack` -- Strawman 2, a hash of the
  sorted received identifiers that the sender inverts by subset search
  (extraordinary computation).
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Iterable, Sequence


class QuackScheme(enum.IntEnum):
    """Wire identifier for each quACK construction."""

    POWER_SUM = 1
    ECHO = 2
    HASH = 3


class DecodeStatus(enum.Enum):
    """Outcome of decoding a quACK against a sender log.

    ``OK`` covers the empty difference too.  The failure modes mirror
    Section 3.2 of the paper; they are *also* raised as exceptions by the
    raising decoder APIs, but protocol code that treats failures as
    routine (e.g. "reset the session") can use the non-raising variants
    and branch on this status.
    """

    OK = "ok"
    THRESHOLD_EXCEEDED = "threshold-exceeded"
    INCONSISTENT = "inconsistent"


@dataclass(frozen=True)
class DecodeResult:
    """Missing identifiers recovered from a quACK.

    Attributes:
        missing: the determinate part of the multiset ``S \\ R`` as a
            sorted tuple of identifiers, with multiplicity (an identifier
            sent twice and received once appears once here).
        status: whether decoding succeeded.
        num_missing: the count difference ``m`` the sender computed; when
            ``status`` is ``OK``, ``len(missing)`` plus the missing counts
            of all indeterminate groups equals ``m``.
        indeterminate: collision groups (Section 3.2: "a decoded identifier
            may correspond to multiple candidate missing packets. The
            sender considers the fate of these packets indeterminate").
            Each entry pairs the tuple of distinct colliding identifiers
            with how many packets of that group are missing.
    """

    missing: tuple[int, ...] = ()
    status: DecodeStatus = DecodeStatus.OK
    num_missing: int = 0
    indeterminate: tuple[tuple[tuple[int, ...], int], ...] = ()

    @property
    def ok(self) -> bool:
        return self.status is DecodeStatus.OK

    @property
    def is_determinate(self) -> bool:
        """True when no packet's fate was left ambiguous by collisions."""
        return not self.indeterminate


class Quack(ABC):
    """Receiver-side accumulator interface shared by all schemes."""

    @abstractmethod
    def insert(self, identifier: int) -> None:
        """Fold one received identifier into the quACK."""

    def insert_many(self, identifiers: Iterable[int]) -> None:
        """Fold a batch of identifiers (schemes may vectorize this)."""
        for identifier in identifiers:
            self.insert(identifier)

    @property
    @abstractmethod
    def count(self) -> int:
        """Number of identifiers folded in, possibly wrapped (Section 3.2)."""

    @abstractmethod
    def wire_size_bits(self) -> int:
        """Size of this quACK on the wire, in bits.

        This is the *payload* size the paper reports (e.g. ``t*b + c =
        656`` bits for the power-sum quACK at n=1000, t=20, b=32, c=16);
        the framed serialization in :mod:`repro.quack.wire` adds a few
        header bytes on top.
        """

    @abstractmethod
    def decode(self, sent_log: Sequence[int]) -> DecodeResult:
        """Recover the missing multiset given the sender's log of sent ids."""
