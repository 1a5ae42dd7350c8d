import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import iv, libmp

from oracles import oracle_pi_horner
from vortexmoduli.errors import DomainError
from vortexmoduli.scalars import (
    PI,
    PiPoly,
    Sign,
    pi_enclosure,
    pp_add,
    pp_approx,
    pp_mul,
    pp_sign,
)


def rnd_poly(rng, max_deg=4):
    return PiPoly(
        [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(rng.randint(0, max_deg))]
    )


def test_canonical_form_strips_trailing_zeros():
    assert PiPoly([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))
    assert PiPoly([0, 0]).is_zero()
    assert PiPoly([]).degree == -1


def test_add_examples():
    assert pp_add(PiPoly([1, 2]), PiPoly([3, -2])) == PiPoly([4])
    x = PiPoly([5, -1, 3])
    assert pp_add(PiPoly(), x) == x
    assert pp_add(PI, PI) == PiPoly([0, 2])


def test_mul_examples():
    assert pp_mul(PI, PI) == PiPoly([0, 0, 1])
    assert pp_mul(PiPoly([1, 1]), PiPoly([1, -1])) == PiPoly([1, 0, -1])
    assert pp_mul(PiPoly(), PiPoly([7, 8])).is_zero()


def test_sign_examples():
    assert pp_sign(PI - 3) == Sign.POSITIVE
    assert pp_sign(PiPoly()) == Sign.ZERO
    assert pp_sign(PiPoly([22, -7])) == Sign.POSITIVE
    assert pp_sign(PiPoly([22, -8])) == Sign.NEGATIVE
    assert pp_sign(-(PI**3)) == Sign.NEGATIVE


def test_sign_needs_refinement_beyond_seed():
    # 355/113 agrees with pi to 6 decimals; the difference still gets a sign.
    tight = PiPoly([Fraction(355, 113), -1])
    assert pp_sign(tight) == Sign.POSITIVE
    # An even tighter rational approximation from the continued fraction.
    c = Fraction(5419351, 1725033)
    assert pp_sign(PiPoly([c, -1])) == Sign.POSITIVE


def test_approx_examples():
    assert pp_approx(PI, 5) == "3.14159"
    assert pp_approx(PiPoly([2]), 3) == "2.000"
    assert pp_approx(PI * PI, 4) == "9.8696"
    assert pp_approx(PiPoly([Fraction(1, 2)]), 1) == "0.5"
    assert pp_approx(-PI, 3) == "-3.142"
    with pytest.raises(DomainError):
        pp_approx(PI, 0)


def test_approx_matches_sign():
    rng = random.Random(7)
    for _ in range(40):
        a = rnd_poly(rng)
        rendered = pp_approx(a, 12)
        sign = pp_sign(a)
        value_negative = rendered.startswith("-") and any(c != "0" for c in rendered if c.isdigit())
        if sign == Sign.NEGATIVE:
            assert rendered.startswith("-")
        if sign == Sign.ZERO:
            assert set(rendered) <= {"0", ".", "-"}
        if value_negative:
            assert sign == Sign.NEGATIVE


def test_ring_axioms_random():
    rng = random.Random(42)
    for _ in range(80):
        a, b, c = rnd_poly(rng), rnd_poly(rng), rnd_poly(rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert a * (b * c) == (a * b) * c
        assert pp_sign(a * a) in (Sign.ZERO, Sign.POSITIVE)


def test_zero_iff_all_coeffs_zero():
    rng = random.Random(3)
    for _ in range(40):
        a = rnd_poly(rng)
        assert (pp_sign(a) == Sign.ZERO) == a.is_zero()


def test_enclosure_agrees_with_seed():
    lo, hi = pi_enclosure(80)
    assert hi - lo <= Fraction(1, 10**80)
    assert Fraction(314159265358979, 10**14) < lo
    assert hi < Fraction(314159265358980, 10**14)


def test_division_by_monomial():
    x = PiPoly([0, 0, 6, 2])
    assert x.div_monomial(2, 1) == PiPoly([0, 3, 1])
    with pytest.raises(DomainError):
        PiPoly([1, 2]).div_monomial(1, 1)
    with pytest.raises(DomainError):
        x.div_monomial(0)


def test_power_and_scale():
    assert (PI + 1) ** 2 == PiPoly([1, 2, 1])
    assert PiPoly([1, 1]).scale(Fraction(1, 2)) == PiPoly([Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(DomainError):
        PI ** (-1)


def test_json_rendering():
    doc = PiPoly([2, -12]).to_json(6)
    assert doc["coeffs"] == ["2/1", "-12/1"]
    assert doc["approx"].startswith("-35.6")


def test_str_rendering():
    assert str(PiPoly([2, -12])) == "2 - 12*pi"
    assert str(PiPoly()) == "0"
    assert str(PI) == "pi"
    assert str(PiPoly([0, 0, Fraction(1, 2)])) == "1/2*pi^2"


coefficient = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6)


@st.composite
def pi_polys(draw):
    degree = draw(st.integers(1, 34))
    lower = draw(st.lists(coefficient, min_size=degree, max_size=degree))
    leading = draw(coefficient.filter(lambda c: c != 0))
    return PiPoly(lower + [leading])


def decimal_pi(digits):
    """pi_enclosure(digits) rounded outward onto the grid 10**-digits."""
    lo, hi = pi_enclosure(digits)
    scale = 10**digits
    return (
        Fraction(lo.numerator * scale // lo.denominator, scale),
        Fraction(-(-hi.numerator * scale // hi.denominator), scale),
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(pi_polys(), st.integers(12, 200))
def test_enclosure_contains_fraction_horner_reference(poly, digits):
    lo, hi = poly.enclosure(digits)
    assert lo <= hi
    # The width bound stated by PiPoly.enclosure.
    assert hi - lo <= sum(abs(c) for c in poly.coeffs) * Fraction(1, 10**digits)
    # Twice the digits, plus guard digits that keep the reference's own
    # interval growth (about (n + 1) * 4**n) below the width tested.
    ref_lo, ref_hi = oracle_pi_horner(poly.coeffs, *decimal_pi(2 * (digits + poly.degree)))
    assert lo <= ref_lo <= ref_hi <= hi


def mpmath_enclosure(poly, dps):
    """Rational endpoints of mpmath interval Horner at a pi mpmath computes."""
    saved, iv.dps = iv.dps, dps
    try:
        acc = iv.mpf(0)
        for c in reversed(poly.coeffs):
            acc = acc * iv.pi + iv.mpf(c.numerator) / c.denominator
        return tuple(Fraction(*libmp.to_rational(end)) for end in acc._mpi_)
    finally:
        iv.dps = saved


def test_approx_agrees_with_mpmath_intervals():
    rng = random.Random(11)
    polys = [
        (PI + 1) ** 20 * Fraction(1, 3) - PiPoly.pi(5, 7),
        PiPoly.pi(34, Fraction(1, 10**20)) - PiPoly.pi(33, Fraction(-5, 7)) + 1,
        (PI * Fraction(7, 2)) ** 24 * Fraction(1, math.factorial(24)),
    ] + [
        PiPoly([Fraction(rng.randint(-(10**9), 10**9), rng.randint(1, 10**5)) for _ in range(deg + 1)])
        for deg in (20, 27, 34)
    ]
    for poly in polys:
        assert poly.degree >= 20
        for digits in (12, 30):
            rendered = Fraction(poly.approx(digits))
            half_ulp = Fraction(1, 2 * 10**digits)
            lo, hi = mpmath_enclosure(poly, digits + 60)
            assert rendered - half_ulp < lo <= hi < rendered + half_ulp
