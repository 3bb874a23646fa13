from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padharm.errors import NotInDomain, UnsupportedPlace
from padharm.padic import FieldContext, QuadExtContext, unit_residue, val_p


def test_val_p():
    assert val_p(Fraction(9), 3) == 2
    assert val_p(Fraction(1, 3), 3) == -1
    assert val_p(Fraction(10, 9), 3) == -2
    assert val_p(Fraction(5), 3) == 0


def test_val_p_int_matches_fraction():
    for n in list(range(-100, 0)) + list(range(1, 100)) + [3 ** 40, -2 * 3 ** 17]:
        assert val_p(n, 3) == val_p(Fraction(n), 3)
    for zero in (0, Fraction(0)):
        with pytest.raises(ValueError):
            val_p(zero, 3)


def test_field_context_rejects_p2_and_composites():
    with pytest.raises(UnsupportedPlace):
        FieldContext(2, 4)
    with pytest.raises(UnsupportedPlace):
        FieldContext(9, 4)


def test_scalar_valuation_and_unit():
    # F-scalars are exact rationals
    x = Fraction(18, 5)
    assert val_p(x, 3) == 2
    # unit part 2/5, mod 3^6 and mod 3
    assert unit_residue(x, 3, 3 ** 6) == 2 * pow(5, -1, 3 ** 6) % 3 ** 6
    assert unit_residue(x, 3) == 1


def test_scalar_round_trip():
    # E-scalars keep their rational coordinates exactly
    ext = QuadExtContext(FieldContext(5, 6), 2)
    for t in (Fraction(7, 2), Fraction(-50, 3), Fraction(1, 125)):
        z = ext.scalar(t, 1 / t)
        assert (z.x, z.y) == (t, 1 / t)
        assert z * z.inverse() == 1


def test_sqrt_is_exact_mod_p_to_the_N():
    # the one truncated value: a Hensel-lifted square root
    F = FieldContext(3, 6)
    for c in (Fraction(7), Fraction(4, 9), Fraction(81 * 7, 4)):
        r = F.sqrt(c)
        assert val_p(r * r - c, 3) >= val_p(c, 3) + 6
    with pytest.raises(NotInDomain):
        F.sqrt(Fraction(2))
    with pytest.raises(NotInDomain):
        F.sqrt(Fraction(3))


def test_quad_ext_kinds():
    F = FieldContext(3, 6)
    assert QuadExtContext(F, 2).kind == "inert"
    assert QuadExtContext(F, 3).kind == "ramified"
    with pytest.raises(UnsupportedPlace):
        QuadExtContext(F, 4)  # square unit: split
    with pytest.raises(NotInDomain):
        QuadExtContext(F, 9)  # valuation 2


def test_ext_scalar_arithmetic():
    F = FieldContext(3, 8)
    ext = QuadExtContext(F, 2)
    z = ext.scalar(Fraction(1, 3), Fraction(2))
    w = ext.scalar(Fraction(5), Fraction(-1, 9))
    # norm is multiplicative; compare the exact rational mirror
    N = lambda a, b: a * a - 2 * b * b
    zn, wn = N(Fraction(1, 3), Fraction(2)), N(Fraction(5), Fraction(-1, 9))
    assert (z * w).norm() == zn * wn
    # conjugation: z * conj(z) is the norm, with zero tau-part
    assert z * z.conj() == zn
    # trace is twice the plus part
    assert z.trace() == 2 * Fraction(1, 3)


def test_tau_squares_to_delta():
    F = FieldContext(3, 8)
    for d in (2, 3):
        ext = QuadExtContext(F, d)
        t2 = ext.tau() * ext.tau()
        assert (t2.x, t2.y) == (d, 0)


@settings(max_examples=50, deadline=None)
@given(st.fractions(min_value=-20, max_value=20, max_denominator=27).filter(
    lambda t: t != 0),
    st.fractions(min_value=-20, max_value=20, max_denominator=27).filter(
        lambda t: t != 0))
def test_valuation_is_additive(a, b):
    assert val_p(a * b, 3) == val_p(a, 3) + val_p(b, 3)
    assert (a + b) == 0 or val_p(a + b, 3) >= min(val_p(a, 3), val_p(b, 3))
