"""Tests for root finding (repro.arith.roots)."""

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arith.field import PrimeField, field_for_bits
from repro.arith.polynomial import Poly
from repro.arith.roots import (
    VECTOR_CROSSOVER,
    deflate_root,
    find_all_roots,
    roots_among_candidates,
)
from repro.errors import ArithmeticDomainError

P = 4_294_967_291
F = PrimeField(P)
FSMALL = PrimeField(251)


class TestDeflateRoot:
    @pytest.mark.parametrize("copies", [1, 2, 3, 20])
    def test_strips_every_copy_with_one_division_each(self, copies,
                                                      monkeypatch):
        others = [5, P - 1]
        f = Poly.from_roots(F, [9] * copies + others)
        divisions = []
        real_divmod = Poly.__divmod__
        monkeypatch.setattr(
            Poly, "__divmod__",
            lambda a, b: divisions.append(b) or real_divmod(a, b))
        rest, multiplicity = deflate_root(f, 9)
        assert multiplicity == copies == len(divisions)
        assert rest == Poly.from_roots(F, others)

    def test_root_at_zero_and_sole_root(self):
        rest, multiplicity = deflate_root(Poly.from_roots(F, [0, 0, 4]), 0)
        assert (rest, multiplicity) == (Poly.from_roots(F, [4]), 2)
        assert deflate_root(Poly.from_roots(F, [4]), 4) == (Poly.one(F), 1)

    def test_non_root_rejected(self):
        with pytest.raises(ArithmeticDomainError):
            deflate_root(Poly.from_roots(F, [1, 2]), 3)


class TestRootsAmongCandidates:
    def test_basic_mask(self):
        f = Poly.from_roots(F, [10, 20])
        mask = roots_among_candidates(f, np.array([5, 10, 15, 20],
                                                  dtype=np.uint64))
        assert mask.tolist() == [False, True, False, True]

    def test_candidates_reduced_mod_p(self):
        f = Poly.from_roots(F, [3])
        # P + 3 aliases 3.
        mask = roots_among_candidates(f, np.array([P + 3], dtype=np.uint64))
        assert mask.tolist() == [True]

    def test_zero_poly_rejected(self):
        with pytest.raises(ArithmeticDomainError):
            roots_among_candidates(Poly.zero(F), np.array([1], dtype=np.uint64))

    def test_constant_poly_has_no_roots(self):
        mask = roots_among_candidates(Poly.one(F),
                                      np.array([0, 1, 2], dtype=np.uint64))
        assert not mask.any()

    @pytest.mark.parametrize("bits", [32, 64])
    @pytest.mark.parametrize("count", [VECTOR_CROSSOVER - 1,
                                       VECTOR_CROSSOVER])
    def test_plain_and_numpy_horner_agree(self, bits, count):
        # Below the crossover Horner runs on Python ints, also for uint64
        # candidates, whose products would wrap in a 64-bit field.
        field = field_for_bits(bits)
        rng = random.Random(count)
        points = [rng.getrandbits(64) for _ in range(count)]
        f = Poly.from_roots(field, points[::7])
        expected = [f(x) == 0 for x in points]
        for candidates in (points, np.array(points, dtype=np.uint64)):
            assert roots_among_candidates(f, candidates).tolist() == expected


class TestFindAllRoots:
    @given(roots=st.lists(st.integers(min_value=0, max_value=P - 1),
                          min_size=0, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_recovers_multiset(self, roots):
        f = Poly.from_roots(F, roots)
        if f.degree < 1:
            if not f.is_zero:
                assert find_all_roots(f) == Counter()
            return
        assert find_all_roots(f) == Counter(roots)

    def test_multiplicities(self):
        f = Poly.from_roots(F, [7, 7, 7, 11])
        assert find_all_roots(f) == Counter({7: 3, 11: 1})

    def test_zero_root_with_multiplicity(self):
        f = Poly.from_roots(F, [0, 0, 5])
        assert find_all_roots(f) == Counter({0: 2, 5: 1})

    def test_irreducible_quadratic_yields_nothing(self):
        # x^2 + 1 over GF(251): 251 % 4 == 3, so -1 is a non-residue.
        f = Poly(FSMALL, [1, 0, 1])
        assert find_all_roots(f) == Counter()

    def test_mixed_linear_and_irreducible(self):
        linear = Poly.from_roots(FSMALL, [9])
        irreducible = Poly(FSMALL, [1, 0, 1])
        roots = find_all_roots(linear * irreducible)
        assert roots == Counter({9: 1})

    def test_non_monic_input(self):
        f = Poly.from_roots(F, [4, 6]).scale(1234)
        assert find_all_roots(f) == Counter({4: 1, 6: 1})

    def test_zero_poly_rejected(self):
        with pytest.raises(ArithmeticDomainError):
            find_all_roots(Poly.zero(F))

    def test_deterministic_without_rng(self):
        f = Poly.from_roots(F, list(range(100, 110)))
        assert find_all_roots(f) == find_all_roots(f)

    def test_explicit_rng(self):
        roots = [13, 17, 19, 23]
        f = Poly.from_roots(FSMALL, roots)
        for seed in range(5):
            assert find_all_roots(f, random.Random(seed)) == Counter(roots)

    def test_all_elements_of_small_field(self):
        # x^251 - x has every field element as a root: its linear part is
        # everything.  Use a smaller product to keep the test fast.
        values = list(range(25))
        f = Poly.from_roots(FSMALL, values)
        assert find_all_roots(f) == Counter(values)

    def test_wide_degree_random_multiset(self):
        rng = random.Random(99)
        roots = [rng.randrange(P) for _ in range(20)]
        roots += roots[:3]  # duplicates
        f = Poly.from_roots(F, roots)
        assert find_all_roots(f) == Counter(roots)
