"""Tests for RangeSet (repro.transport.ranges), with a model-based check."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.transport.ranges import RangeSet


def rangeset(*ranges):
    """A RangeSet holding the inclusive ``(lo, hi)`` ``ranges``."""
    result = RangeSet()
    for lo, hi in ranges:
        result.add_range(lo, hi)
    return result

range_ops = st.lists(
    st.tuples(st.integers(min_value=0, max_value=200),
              st.integers(min_value=0, max_value=10)),
    min_size=0, max_size=30,
)


class TestAddAndMerge:
    def test_single_values(self):
        rs = RangeSet()
        rs.add(5)
        rs.add(7)
        assert rs.ranges == ((5, 5), (7, 7))

    def test_adjacent_values_merge(self):
        rs = RangeSet()
        rs.add(5)
        rs.add(6)
        assert rs.ranges == ((5, 6),)

    def test_bridge_merge(self):
        rs = RangeSet()
        rs.add(5)
        rs.add(7)
        rs.add(6)
        assert rs.ranges == ((5, 7),)

    def test_overlapping_ranges(self):
        rs = RangeSet()
        rs.add_range(0, 10)
        rs.add_range(5, 15)
        assert rs.ranges == ((0, 15),)

    def test_containing_range_absorbs(self):
        rs = RangeSet()
        rs.add_range(3, 4)
        rs.add_range(0, 10)
        assert rs.ranges == ((0, 10),)

    def test_duplicate_add_is_noop(self):
        rs = RangeSet()
        rs.add(5)
        rs.add(5)
        assert rs.ranges == ((5, 5),)
        assert len(rs) == 1

    def test_inverted_range_rejected(self):
        with pytest.raises(ValueError):
            RangeSet().add_range(5, 3)

    def test_constructor_ranges(self):
        rs = rangeset((0, 2), (4, 6))
        assert rs.ranges == ((0, 2), (4, 6))

    @given(ops=range_ops)
    @settings(max_examples=80)
    def test_model_based(self, ops):
        """RangeSet must behave exactly like a plain set of ints."""
        rs = RangeSet()
        model = set()
        for lo, width in ops:
            rs.add_range(lo, lo + width)
            model.update(range(lo, lo + width + 1))
        assert len(rs) == len(model)
        # Ranges are sorted, disjoint, non-adjacent.
        flat = list(rs.ranges)
        for (lo1, hi1), (lo2, hi2) in zip(flat, flat[1:]):
            assert hi1 + 2 <= lo2
        # Membership agrees on a sample.
        for v in list(model)[:50]:
            assert v in rs
        for v in range(0, 250, 7):
            assert (v in rs) == (v in model)


def missing_below(rs, ceiling):
    """The gaps in [smallest element, ceiling], as ``RangeSet.missing_below``
    listed them before ``has_gap_below`` replaced it."""
    gaps = []
    previous_hi = None
    for lo, hi in rs:
        if lo > ceiling:
            break
        if previous_hi is not None and lo > previous_hi + 1:
            gaps.append((previous_hi + 1, min(lo - 1, ceiling)))
        previous_hi = hi
    if previous_hi is not None and previous_hi < ceiling:
        gaps.append((previous_hi + 1, ceiling))
    return gaps


class TestCountingAndGaps:
    @given(ops=range_ops, probes=st.lists(st.integers(0, 220), max_size=20))
    @settings(max_examples=150)
    def test_model_based(self, ops, probes):
        """``add_range`` returns the change in ``len()``; ``has_gap_below``
        answers what the gap list it replaced answered."""
        rs = RangeSet()
        for lo, width in ops:
            before = len(rs)
            assert rs.add_range(lo, lo + width) == len(rs) - before
            assert rs.count == len(rs)
            for probe in probes:
                assert rs.has_gap_below(probe) \
                    == bool(missing_below(rs, probe))


def assert_well_formed(rs, model):
    flat = list(rs.ranges)
    assert {v for lo, hi in flat for v in range(lo, hi + 1)} == model
    for (_lo1, hi1), (lo2, _hi2) in zip(flat, flat[1:]):
        assert hi1 + 2 <= lo2
    # The maintained count is the sum it replaced.
    assert len(rs) == sum(hi - lo + 1 for lo, hi in flat) == len(model)


class TestAddNew:
    """``add_new``: insert ranges, get back exactly what they added."""

    def test_pieces_between_stored_ranges(self):
        rs = rangeset((2, 3), (6, 7), (10, 12))
        assert rs.add_new([(0, 11)]) == [(0, 1), (4, 5), (8, 9)]
        assert rs.ranges == ((0, 12),)
        assert len(rs) == 13

    def test_covered_range_adds_nothing(self):
        rs = rangeset((0, 9), (20, 29))
        assert rs.add_new([(22, 25), (3, 9), (0, 0)]) == []
        assert rs.ranges == ((0, 9), (20, 29))

    def test_frame_order_is_kept_and_pieces_ascend(self):
        rs = rangeset((5, 5))
        assert rs.add_new([(20, 22), (3, 8), (0, 1)]) == \
            [(20, 22), (3, 4), (6, 8), (0, 1)]

    def test_neighbours_merge(self):
        rs = rangeset((0, 4), (10, 14))
        assert rs.add_new([(5, 9)]) == [(5, 9)]
        assert rs.ranges == ((0, 14),)

    def test_unordered_and_overlapping_ranges(self):
        rs = RangeSet()
        assert rs.add_new([(3, 5), (10, 12), (4, 11), (0, 20)]) == \
            [(3, 5), (10, 12), (6, 9), (0, 2), (13, 20)]
        assert rs.ranges == ((0, 20),)

    def test_values_at_or_above_the_limit_are_ignored(self):
        rs = RangeSet()
        assert rs.add_new([(8, 12), (3, 4)], below=10) == [(8, 9), (3, 4)]
        assert rs.add_new([(10, 15)], below=10) == []
        assert rs.ranges == ((3, 4), (8, 9))

    def test_inverted_range_is_empty(self):
        rs = rangeset((1, 2))
        assert rs.add_new([(9, 4)]) == []
        assert rs.ranges == ((1, 2),)

    @given(frames=st.lists(
        st.tuples(st.lists(st.tuples(st.integers(0, 120), st.integers(0, 12)),
                           min_size=0, max_size=10),
                  st.booleans(), st.one_of(st.none(), st.integers(0, 130))),
        min_size=1, max_size=12), seed_ops=range_ops)
    @settings(max_examples=300)
    def test_model_based(self, frames, seed_ops):
        """Against a ``set[int]``: the pieces are what a value-by-value
        walk in the given order finds new, and the set ends up right."""
        rs = RangeSet()
        model = set()
        for lo, width in seed_ops:
            rs.add_range(lo, lo + width)
            model.update(range(lo, lo + width + 1))
        for spans, newest_first, below in frames:
            ranges = [(lo, lo + width) for lo, width in spans]
            if newest_first:  # the shape of an ACK frame
                ranges.sort(reverse=True)
            expected = []
            for lo, hi in ranges:
                for value in range(lo, hi + 1):
                    if value not in model and (below is None or value < below):
                        model.add(value)
                        expected.append(value)
            pieces = rs.add_new(ranges, below)
            assert [v for lo, hi in pieces
                    for v in range(lo, hi + 1)] == expected
            assert all(lo <= hi for lo, hi in pieces)
            assert_well_formed(rs, model)

    @given(ops=st.lists(st.tuples(st.integers(0, 200), st.integers(0, 10),
                                  st.booleans()), max_size=40))
    @settings(max_examples=150)
    def test_count_is_maintained_across_both_mutations(self, ops):
        rs = RangeSet()
        model = set()
        for lo, width, through_add_new in ops:
            if through_add_new:
                rs.add_new([(lo, lo + width)])
            else:
                rs.add_range(lo, lo + width)
            model.update(range(lo, lo + width + 1))
            assert_well_formed(rs, model)


class TestQueries:
    def test_min_max(self):
        rs = rangeset((5, 9), (20, 22))
        assert rs.max_value == 22
        assert RangeSet().max_value is None

    def test_bool(self):
        assert not RangeSet()
        assert rangeset((1, 1))

    def test_covers_contiguously(self):
        rs = rangeset((0, 10), (12, 20))
        assert rs.covers_contiguously(0, 10)
        assert rs.covers_contiguously(3, 7)
        assert not rs.covers_contiguously(0, 12)
        assert not rs.covers_contiguously(9, 13)
        assert rs.covers_contiguously(12, 20)

    def test_missing_below(self):
        rs = rangeset((0, 3), (6, 8), (12, 12))
        assert rs.has_gap_below(12)
        assert rs.has_gap_below(14)
        assert not rs.has_gap_below(3)
        assert rs.has_gap_below(4)
        # Nothing below the smallest element counts as missing.
        assert not rangeset((5, 9)).has_gap_below(2)

    def test_missing_below_empty_set(self):
        assert not RangeSet().has_gap_below(10)

    def test_highest(self):
        rs = rangeset((0, 1), (5, 6), (10, 10))
        assert rs.highest(2) == ((10, 10), (5, 6))
        assert rs.highest(5) == ((10, 10), (5, 6), (0, 1))
        assert rs.highest(0) == ()
        assert RangeSet().highest(3) == ()

    def test_equality(self):
        assert rangeset((1, 3)) == rangeset((1, 2), (3, 3))
        assert RangeSet() != rangeset((0, 0))

    def test_iter_and_repr(self):
        rs = rangeset((1, 2))
        assert list(rs) == [(1, 2)]
        assert "[1,2]" in repr(rs)
