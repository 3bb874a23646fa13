import operator
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padharm.errors import NotInDomain, UnsupportedPlace
from padharm.padic import (
    FieldContext,
    QuadExtContext,
    strip_p,
    unit_residue,
    val_p,
)


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


def test_val_p_of_large_valuations():
    # around powers of two, where the p, p^2, p^4, ... ladder restarts
    for v in (1, 2, 3, 7, 8, 9, 63, 64, 65, 1000, 8832):
        for p in (3, 5):
            assert val_p(7 * p ** v, p) == v
            assert val_p(Fraction(-2, p ** v), p) == -v


@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from((2, 3, 5, 7)), v=st.integers(0, 300),
       u=st.integers(-10 ** 12, 10 ** 12).filter(bool))
def test_strip_p_splits_off_the_power_of_p(p, v, u):
    # every run length, across the switch to p^2, p^4, ... at v = 8
    while u % p == 0:
        u //= p
    assert strip_p(p ** v * u, p) == (v, u)


def test_field_context_rejects_p2_and_composites():
    with pytest.raises(UnsupportedPlace):
        FieldContext(2)
    with pytest.raises(UnsupportedPlace):
        FieldContext(9)


def test_field_context_ignores_a_second_argument():
    # perfbench/ still calls FieldContext(p, k)
    F = FieldContext(3, 4)
    assert F == FieldContext(3) and hash(F) == hash(FieldContext(3))
    assert repr(F) == "FieldContext(p=3)" and not hasattr(F, "N")


def test_scalar_valuation_and_unit():
    # F-scalars are exact rationals
    x = Fraction(18, 5)
    assert val_p(x, 3) == 2
    # unit part 2/5, mod 3
    assert unit_residue(x, 3) == 1


def test_scalar_round_trip():
    # E-scalars keep their rational coordinates exactly
    ext = QuadExtContext(FieldContext(5), 2)
    for t in (Fraction(7, 2), Fraction(-50, 3), Fraction(1, 125)):
        z = ext.scalar(t, 1 / t)
        assert (z.x, z.y) == (t, 1 / t)
        assert z * z.inverse() == ext.one()


def test_quad_ext_kinds():
    F = FieldContext(3)
    assert QuadExtContext(F, 2).kind == "inert"
    assert QuadExtContext(F, 3).kind == "ramified"
    with pytest.raises(UnsupportedPlace):
        QuadExtContext(F, 4)  # square unit: split
    with pytest.raises(NotInDomain):
        QuadExtContext(F, 9)  # valuation 2


def test_ext_scalar_arithmetic():
    F = FieldContext(3)
    ext = QuadExtContext(F, 2)
    z = ext.scalar(Fraction(1, 3), Fraction(2))
    w = ext.scalar(Fraction(5), Fraction(-1, 9))
    # norm is multiplicative; compare the exact rational mirror
    N = lambda a, b: a * a - 2 * b * b
    zn, wn = N(Fraction(1, 3), Fraction(2)), N(Fraction(5), Fraction(-1, 9))
    assert (z * w) * (z * w).conj() == ext.scalar(zn * wn)
    # conjugation: z * conj(z) is the norm, with zero tau-part
    assert z * z.conj() == ext.scalar(zn)


def test_tau_squares_to_delta():
    F = FieldContext(3)
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


class PairRef:
    """x + tau*y as a plain pair of Fractions: the reference the integer
    kernel of QuadExtScalar is checked against."""

    def __init__(self, delta, x, y):
        self.delta, self.x, self.y = Fraction(delta), Fraction(x), Fraction(y)

    def _new(self, x, y):
        return PairRef(self.delta, x, y)

    def __add__(self, o):
        return self._new(self.x + o.x, self.y + o.y)

    def __sub__(self, o):
        return self._new(self.x - o.x, self.y - o.y)

    def __mul__(self, o):
        return self._new(self.x * o.x + self.delta * self.y * o.y,
                         self.x * o.y + self.y * o.x)

    def conj(self):
        return self._new(self.x, -self.y)

    def norm(self):
        return self.x * self.x - self.delta * self.y * self.y

    def is_zero(self):
        return self.x == 0 and self.y == 0

    def inverse(self):
        n = self.norm()
        return self._new(self.x / n, -self.y / n)

    def valuation_E(self, p, e):
        cands = [e * val_p(self.x, p)] if self.x else []
        if self.y:
            cands.append(e * val_p(self.y, p) + e - 1)
        return min(cands)


# inert and ramified delta, each also with a denominator other than 1
KERNEL_EXTS = [QuadExtContext(FieldContext(p), d) for p, d in (
    (3, 2), (3, 3), (3, Fraction(5, 7)), (3, Fraction(-3, 2)),
    (5, Fraction(10, 3)))]
coord = st.one_of(
    st.fractions(min_value=-30, max_value=30, max_denominator=54),
    st.sampled_from([Fraction(0), Fraction(3 ** 7, 2), Fraction(1, 3 ** 5)]))


def _matches(z, ref):
    """z has ref's coordinates and is in normal form."""
    a, b, d = z.a, z.b, z.d
    return (d > 0 and gcd(a, b, d) == 1
            and (Fraction(a, d), Fraction(b, d)) == (ref.x, ref.y)
            and (z.x, z.y) == (ref.x, ref.y))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(KERNEL_EXTS), coord, coord, coord, coord, coord)
def test_integer_kernel_matches_fraction_pairs(ext, x1, y1, x2, y2, r):
    z, w = ext.scalar(x1, y1), ext.scalar(x2, y2)
    zr, wr = PairRef(ext.delta, x1, y1), PairRef(ext.delta, x2, y2)
    rr = PairRef(ext.delta, r, 0)
    assert _matches(z, zr) and _matches(w, wr)
    assert repr(z) == f"QuadExt({x1} + tau*{y1})"
    assert _matches(z + w, zr + wr) and _matches(z - w, zr - wr)
    assert _matches(z * w, zr * wr) and _matches(-z, PairRef(ext.delta, 0, 0) - zr)
    rz = ext.scalar(r)
    assert _matches(z + rz, zr + rr) and _matches(rz + z, zr + rr)
    assert _matches(z - rz, zr - rr) and _matches(rz + (-z), rr - zr)
    assert _matches(z * rz, zr * rr) and _matches(rz * z, zr * rr)
    # a rational is not converted: ext.scalar builds it
    with pytest.raises(TypeError):
        z + r
    assert z != r
    assert _matches(z.conj(), zr.conj())
    assert z.is_zero() == zr.is_zero()
    assert (z == w) == ((x1, y1) == (x2, y2))
    assert (z == rz) == ((x1, y1) == (r, 0))
    if wr.is_zero():
        with pytest.raises(NotInDomain):
            w.inverse()
    else:
        assert _matches(w.inverse(), wr.inverse())
        assert _matches(z * w.inverse(), zr * wr.inverse())
    if zr.is_zero():
        with pytest.raises(NotInDomain):
            z.valuation_E()
    else:
        assert z.valuation_E() == zr.valuation_E(ext.F.p, ext.e)
    if r:
        assert _matches(z * ext.scalar(r).inverse(), zr * rr.inverse())


def test_elements_of_different_extensions_do_not_mix():
    F = FieldContext(3)
    e2, e3 = QuadExtContext(F, 2), QuadExtContext(F, 3)
    # once e2.tau() * e3.tau() was 2, e3.tau() * e2.tau() was 3, and
    # e2.tau() == e3.tau() held
    for op in (operator.add, operator.sub, operator.mul):
        for z, w in ((e2.tau(), e3.tau()), (e3.tau(), e2.tau())):
            with pytest.raises(NotInDomain):
                op(z, w)
    assert not e2.tau() == e3.tau()
    assert e2.tau() != e3.tau()
    # an equal context is the same field
    again = QuadExtContext(F, 2)
    assert e2.tau() == again.tau()
    assert e2.tau() * again.tau() == e2.scalar(2)
