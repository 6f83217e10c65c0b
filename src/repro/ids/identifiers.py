"""Pseudorandom packet identifiers.

A quACK refers to packets by "32 bits from a randomly-encrypted QUIC
header" (paper, Section 3.2).  We model the encryption with a keyed PRF
(BLAKE2b with a per-connection key): everyone who sees the packet bytes --
the sender, the proxy sidecar, the receiver -- derives the *same*
identifier from the same packet, and the identifiers are computationally
indistinguishable from uniform b-bit values, which is exactly the
assumption behind the collision analysis of Table 3.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterator

import numpy as np


class IdentifierFactory:
    """Derives the b-bit identifier of each packet of one connection.

    Args:
        key: the per-connection secret (any bytes; a fresh random key per
            connection models QUIC's per-connection header protection).
        bits: identifier width ``b`` (8..64 supported).
    """

    __slots__ = ("key", "bits", "_mask")

    def __init__(self, key: bytes, bits: int = 32) -> None:
        if not 1 <= bits <= 64:
            raise ValueError(f"identifier bits must be in [1, 64], got {bits}")
        if not key:
            raise ValueError("the connection key must be non-empty")
        self.key = bytes(key)
        self.bits = bits
        self._mask = (1 << bits) - 1

    def identifier(self, packet_number: int) -> int:
        """The identifier of the packet with this (private) packet number.

        The packet number never appears on the wire in the clear; it is
        the PRF *input* standing in for the packet's encrypted bytes.
        """
        digest = hashlib.blake2b(
            packet_number.to_bytes(8, "big", signed=False),
            key=self.key, digest_size=8,
        ).digest()
        return int.from_bytes(digest, "big") & self._mask

    def identifiers(self, count: int, start: int = 0) -> np.ndarray:
        """Identifiers of ``count`` consecutive packet numbers, as uint64."""
        values = np.fromiter(
            (self.identifier(start + i) for i in range(count)),
            dtype=np.uint64, count=count,
        )
        return values

    def stream(self, start: int = 0) -> Iterator[int]:
        """An endless iterator of identifiers from ``start`` upward."""
        packet_number = start
        while True:
            yield self.identifier(packet_number)
            packet_number += 1

    @classmethod
    def fresh(cls, rng: random.Random | None = None) -> "IdentifierFactory":
        """A factory with a random per-connection key."""
        rng = rng if rng is not None else random.SystemRandom()
        return cls(rng.getrandbits(128).to_bytes(16, "big"))


def random_identifiers(count: int, bits: int = 32,
                       rng: random.Random | None = None) -> np.ndarray:
    """``count`` independent uniform b-bit identifiers (for benchmarks).

    Unlike :class:`IdentifierFactory`, these are not tied to packet
    numbers; they model an anonymous stream of encrypted packets.
    """
    rng = rng if rng is not None else random.Random(0x51DECA12)
    return np.fromiter((rng.getrandbits(bits) for _ in range(count)),
                       dtype=np.uint64, count=count)


def sample_unique_identifiers(count: int, bits: int = 32,
                              rng: random.Random | None = None) -> np.ndarray:
    """``count`` *distinct* b-bit identifiers.

    Useful for tests that must rule out collisions to isolate another
    behaviour.  Raises :class:`ValueError` when the space is too small.
    """
    if count > (1 << bits):
        raise ValueError(f"cannot draw {count} distinct {bits}-bit values")
    rng = rng if rng is not None else random.Random(0x51DECA12)
    seen: set[int] = set()
    while len(seen) < count:
        seen.add(rng.getrandbits(bits))
    return np.fromiter(seen, dtype=np.uint64, count=count)
