"""Integer interval sets, used for ACK ranges and received-byte tracking.

A :class:`RangeSet` stores a set of non-negative integers as sorted,
disjoint, inclusive ranges ``[lo, hi]``.  QUIC expresses both its ACK
frames and its stream reassembly state this way; we reuse one structure
for both (packet numbers and byte offsets).
"""

from __future__ import annotations

import bisect
from typing import Iterable, Iterator


class RangeSet:
    """A set of ints as sorted disjoint inclusive ranges."""

    __slots__ = ("_ranges", "count")

    def __init__(self) -> None:
        self._ranges: list[tuple[int, int]] = []
        #: Integers covered (read-only; ``len()`` is the same number),
        #: maintained by every mutation so that both endpoints can test
        #: completion per packet without a search.
        self.count = 0

    # -- mutation ---------------------------------------------------------

    def add(self, value: int) -> int:
        return self.add_range(value, value)

    def add_range(self, lo: int, hi: int) -> int:
        """Insert the inclusive range [lo, hi], merging neighbours.

        Returns how many integers were not yet present (0: all were).
        """
        if lo > hi:
            raise ValueError(f"inverted range [{lo}, {hi}]")
        ranges = self._ranges
        if ranges:
            last_lo, last_hi = ranges[-1]
            if lo >= last_lo:
                # In-order arrival: only the top range can be involved.
                if lo > last_hi + 1:
                    ranges.append((lo, hi))
                    added = hi - lo + 1
                elif hi > last_hi:
                    ranges[-1] = (last_lo, hi)
                    added = hi - last_hi
                else:
                    return 0
                self.count += added
                return added
        # Find the window of existing ranges that touch [lo-1, hi+1].
        i = bisect.bisect_left(ranges, (lo,)) - 1
        if i >= 0 and ranges[i][1] >= lo - 1:
            start = i
        else:
            start = i + 1
        j = start
        new_lo, new_hi = lo, hi
        absorbed = 0
        while j < len(ranges) and ranges[j][0] <= hi + 1:
            old_lo, old_hi = ranges[j]
            if old_lo < new_lo:
                new_lo = old_lo
            if old_hi > new_hi:
                new_hi = old_hi
            absorbed += old_hi - old_lo + 1
            j += 1
        ranges[start:j] = [(new_lo, new_hi)]
        added = new_hi - new_lo + 1 - absorbed
        self.count += added
        return added

    def add_new(self, ranges: Iterable[tuple[int, int]],
                below: int | None = None) -> list[tuple[int, int]]:
        """Insert every range; return the pieces that were not yet present.

        The pieces come in the order the ranges were given and ascending
        inside one range, so a caller that visits them visits exactly the
        integers a range-by-range walk would find new, in the same order.
        Values ``>= below`` are ignored.  An inverted range is empty.

        One pass when the ranges come highest first (an ACK frame): a
        cursor walks the stored ranges downwards beside them, a range the
        set already covers costs a comparison, and only a range that adds
        something splices the list.
        """
        mine = self._ranges
        fresh: list[tuple[int, int]] = []
        # ``mine[j]`` is the highest stored range starting at or below the
        # current ``hi`` (``j == -1``: none does).
        j = len(mine) - 1
        for lo, hi in ranges:
            if below is not None and hi >= below:
                hi = below - 1
            if lo > hi:
                continue
            if j + 1 < len(mine) and mine[j + 1][0] <= hi:
                j = len(mine) - 1  # not descending: start from the top again
            while j >= 0 and mine[j][0] > hi:
                j -= 1
            if j >= 0 and mine[j][0] <= lo and mine[j][1] >= hi:
                continue
            # Walk down across the stored ranges that overlap [lo, hi],
            # collecting the gaps between them from the top.
            pieces: list[tuple[int, int]] = []
            top = hi
            new_hi = hi
            end = j + 1
            if j >= 0 and mine[j][1] > hi:
                new_hi = mine[j][1]
            elif end < len(mine) and mine[end][0] == hi + 1:
                new_hi = mine[end][1]  # touches the range above
                end += 1
            k = j
            while k >= 0 and mine[k][1] >= lo:
                stored_lo, stored_hi = mine[k]
                if stored_hi < top:
                    pieces.append((stored_hi + 1, top))
                top = stored_lo - 1
                k -= 1
            if top < lo:
                new_lo = top + 1  # the lowest overlapped range starts it
            else:
                pieces.append((lo, top))
                new_lo = lo
                if k >= 0 and mine[k][1] == lo - 1:
                    new_lo = mine[k][0]  # touches the range below
                    k -= 1
            mine[k + 1:end] = [(new_lo, new_hi)]
            j = k + 1
            for piece_lo, piece_hi in reversed(pieces):
                self.count += piece_hi - piece_lo + 1
                fresh.append((piece_lo, piece_hi))
        return fresh

    # -- queries -----------------------------------------------------------

    def __contains__(self, value: int) -> bool:
        i = bisect.bisect_right(self._ranges, (value, float("inf"))) - 1
        return i >= 0 and self._ranges[i][0] <= value <= self._ranges[i][1]

    def __len__(self) -> int:
        """Total count of integers covered."""
        return self.count

    def __bool__(self) -> bool:
        return bool(self._ranges)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self._ranges)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RangeSet) and other._ranges == self._ranges

    @property
    def ranges(self) -> tuple[tuple[int, int], ...]:
        return tuple(self._ranges)

    @property
    def max_value(self) -> int | None:
        return self._ranges[-1][1] if self._ranges else None

    def covers_contiguously(self, lo: int, hi: int) -> bool:
        """True if every integer in [lo, hi] is present."""
        i = bisect.bisect_right(self._ranges, (lo, float("inf"))) - 1
        return (i >= 0 and self._ranges[i][0] <= lo
                and self._ranges[i][1] >= hi)

    def has_gap_below(self, ceiling: int) -> bool:
        """True if some integer in [smallest element, ceiling] is missing.

        Nothing is known below the smallest element, so that is not a
        gap.  Ranges never touch, so the answer is whether the lowest
        range ends before ``ceiling``.
        """
        ranges = self._ranges
        return ranges[0][1] < ceiling if ranges else False

    def highest(self, count: int) -> tuple[tuple[int, int], ...]:
        """The ``count`` highest ranges, highest first (an ACK frame's
        order), copying no others."""
        return tuple(reversed(self._ranges[-count:])) if count > 0 else ()

    def __repr__(self) -> str:
        inner = ", ".join(f"[{lo},{hi}]" for lo, hi in self._ranges)
        return f"RangeSet({inner})"
