"""Tests for repro.arith.polynomial."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arith.field import PrimeField, field_for_bits
from repro.arith.polynomial import Poly
from repro.errors import ArithmeticDomainError

P = 4_294_967_291
F = PrimeField(P)
FSMALL = PrimeField(251)

coeff_lists = st.lists(st.integers(min_value=0, max_value=P - 1),
                       min_size=0, max_size=8)


def poly(coeffs, field=F):
    return Poly(field, coeffs)


class TestConstruction:
    def test_trailing_zeros_stripped(self):
        assert poly([1, 2, 0, 0]).coeffs == (1, 2)
        assert poly([0, 0, 0]).coeffs == ()

    def test_zero_one_x(self):
        assert Poly.zero(F).is_zero
        assert Poly.zero(F).degree == -1
        assert Poly.one(F).coeffs == (1,)
        assert Poly.x(F).coeffs == (0, 1)

    def test_coefficients_reduced(self):
        assert poly([P + 3, -1]).coeffs == (3, P - 1)

    def test_from_roots(self):
        p = Poly.from_roots(F, [2, 3])
        # (x-2)(x-3) = x^2 - 5x + 6
        assert p.coeffs == (6, P - 5, 1)
        assert p(2) == 0 and p(3) == 0 and p(4) != 0

    def test_from_roots_empty(self):
        assert Poly.from_roots(F, []) == Poly.one(F)

    def test_leading_coefficient_of_zero_poly(self):
        with pytest.raises(ArithmeticDomainError):
            _ = Poly.zero(F).leading_coefficient

    def test_repr_smoke(self):
        assert "x^2" in repr(poly([1, 0, 2]))
        assert repr(Poly.zero(F)).endswith("0)")


class TestRingOps:
    @given(a=coeff_lists, b=coeff_lists)
    @settings(max_examples=60)
    def test_add_commutes_and_sub_inverts(self, a, b):
        pa, pb = poly(a), poly(b)
        assert pa + pb == pb + pa
        assert (pa + pb) - pb == pa

    @given(a=coeff_lists, b=coeff_lists, c=coeff_lists)
    @settings(max_examples=40)
    def test_mul_distributes(self, a, b, c):
        pa, pb, pc = poly(a), poly(b), poly(c)
        assert pa * (pb + pc) == pa * pb + pa * pc

    @given(a=coeff_lists, b=coeff_lists)
    @settings(max_examples=40)
    def test_mul_degree(self, a, b):
        pa, pb = poly(a), poly(b)
        product = pa * pb
        if pa.is_zero or pb.is_zero:
            assert product.is_zero
        else:
            assert product.degree == pa.degree + pb.degree

    def test_mixed_field_rejected(self):
        with pytest.raises(ArithmeticDomainError):
            poly([1]) + poly([1], FSMALL)
        with pytest.raises(ArithmeticDomainError):
            poly([1]) * poly([1], FSMALL)

    def test_scale(self):
        assert poly([1, 2]).scale(3).coeffs == (3, 6)
        assert poly([1, 2]).scale(0).is_zero


class TestDivision:
    @given(a=coeff_lists, b=coeff_lists)
    @settings(max_examples=60)
    def test_divmod_identity(self, a, b):
        pa, pb = poly(a), poly(b)
        if pb.is_zero:
            return
        q, r = divmod(pa, pb)
        assert q * pb + r == pa
        assert r.is_zero or r.degree < pb.degree

    @given(a=coeff_lists, r=st.integers(min_value=0, max_value=2 * P))
    @settings(max_examples=100)
    def test_linear_path_matches_long_division(self, a, r):
        """Dividing by a monic ``x - r`` takes the synthetic-division
        path; by ``2x - 2r`` the general one.  Same remainder, twice the
        quotient."""
        f = poly(a)
        q, rem = divmod(f, poly([-r, 1]))
        assert q * poly([-r, 1]) + rem == f
        assert rem == poly([f(r % P)])
        q_long, rem_long = divmod(f, poly([-2 * r, 2]))
        assert (q, rem) == (q_long.scale(2), rem_long)

    @pytest.mark.parametrize("field", [FSMALL, F, field_for_bits(64)],
                             ids=lambda field: f"p={field.modulus}")
    def test_linear_path_edges(self, field):
        x_minus_3 = Poly(field, (-3, 1))
        # Zero and constant dividends; a root at 0; results stay canonical.
        assert divmod(Poly.zero(field), x_minus_3) \
            == (Poly.zero(field), Poly.zero(field))
        assert divmod(Poly(field, (5,)), x_minus_3) \
            == (Poly.zero(field), Poly(field, (5,)))
        cube = Poly.from_roots(field, [0, 0, 3])
        q, rem = divmod(cube, Poly.x(field))
        assert (q, rem) == (Poly.from_roots(field, [0, 3]), Poly.zero(field))
        q, rem = divmod(cube, x_minus_3)
        assert (q, rem) == (Poly(field, (0, 0, 1)), Poly.zero(field))
        assert all(0 <= c < field.modulus for c in q.coeffs)

    def test_division_by_zero(self):
        with pytest.raises(ArithmeticDomainError):
            divmod(poly([1, 1]), Poly.zero(F))

    def test_floordiv_mod(self):
        a = Poly.from_roots(F, [1, 2, 3])
        b = Poly.from_roots(F, [2])
        assert a % b == Poly.zero(F)
        assert (a // b) == Poly.from_roots(F, [1, 3])

    def test_monic(self):
        p = poly([2, 4, 6])
        m = p.monic()
        assert m.coeffs[-1] == 1
        assert m.scale(6) == p

    def test_monic_zero(self):
        assert Poly.zero(F).monic().is_zero


class TestGcd:
    def test_common_roots(self):
        a = Poly.from_roots(F, [1, 2, 3])
        b = Poly.from_roots(F, [2, 3, 4])
        assert a.gcd(b) == Poly.from_roots(F, [2, 3])

    def test_coprime(self):
        a = Poly.from_roots(F, [1])
        b = Poly.from_roots(F, [2])
        assert a.gcd(b) == Poly.one(F)

    def test_gcd_with_zero(self):
        a = Poly.from_roots(F, [5]).scale(7)
        assert a.gcd(Poly.zero(F)) == a.monic()

    @given(a=coeff_lists, b=coeff_lists)
    @settings(max_examples=30)
    def test_gcd_divides_both(self, a, b):
        pa, pb = poly(a), poly(b)
        g = pa.gcd(pb)
        if g.is_zero:
            assert pa.is_zero and pb.is_zero
            return
        assert (pa % g).is_zero
        assert (pb % g).is_zero


class TestDerivativeAndEval:
    @given(coeffs=coeff_lists,
           x=st.integers(min_value=0, max_value=P - 1))
    @settings(max_examples=50)
    def test_call_matches_naive(self, coeffs, x):
        p = poly(coeffs)
        expected = sum(c * pow(x, i, P) for i, c in enumerate(coeffs)) % P
        assert p(x) == expected

    @given(coeffs=coeff_lists,
           points=st.lists(st.integers(min_value=0, max_value=2 ** 32 - 1),
                           min_size=1, max_size=12))
    @settings(max_examples=40)
    def test_eval_batch_matches_call(self, coeffs, points):
        p = poly(coeffs)
        out = p.eval_batch(np.array(points, dtype=np.uint64))
        assert [int(v) for v in out] == [p(x % P) for x in points]


class TestPowMod:
    @given(base=coeff_lists, e=st.integers(min_value=0, max_value=40))
    @settings(max_examples=30)
    def test_matches_naive(self, base, e):
        modulus = Poly.from_roots(F, [1, 5, 9])
        pb = poly(base)
        naive = Poly.one(F)
        for _ in range(e):
            naive = (naive * pb) % modulus
        assert pb.pow_mod(e, modulus) == naive % modulus

    def test_fermat_for_polynomials(self):
        # x**p mod (x - a) == a (Fermat), for the small field.
        f = FSMALL
        a = 17
        modulus = Poly(f, [(-a) % 251, 1])
        result = Poly.x(f).pow_mod(251, modulus)
        assert result.coeffs == (a,)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ArithmeticDomainError):
            Poly.x(F).pow_mod(-1, Poly.from_roots(F, [1, 2]))
