from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padharm.errors import PoleAtEvaluationPoint
from padharm.qrational import Poly, QRational, geometric_tail


def T(k=1, c=1):
    return QRational.monomial(Fraction(c), k)


def test_arithmetic_matches_evaluation():
    x = (T(2) - QRational.const(3)) / (T(1) + QRational.const(1))
    y = T(-1) * QRational.const(Fraction(1, 2))
    pts = [Fraction(1, 3), Fraction(2), Fraction(-5, 7), Fraction(4, 9),
           Fraction(7)]
    for t in pts:
        assert (x + y).evaluate(t) == x.evaluate(t) + y.evaluate(t)
        assert (x * y).evaluate(t) == x.evaluate(t) * y.evaluate(t)
        assert (x - y).evaluate(t) == x.evaluate(t) - y.evaluate(t)


def test_pole_raises():
    x = QRational.const(1) / (T(1) - QRational.const(1))
    with pytest.raises(PoleAtEvaluationPoint):
        x.evaluate(Fraction(1))
    # removable singularities are fine
    y = (T(2) - QRational.const(1)) / (T(1) - QRational.const(1))
    assert y.evaluate(Fraction(1)) == 2


def test_substitute_reciprocal_involution():
    x = (T(3) + QRational.const(2)) / (T(1) - QRational.const(5))
    assert x.substitute_reciprocal().substitute_reciprocal() == x
    t = Fraction(3, 7)
    assert x.substitute_reciprocal().evaluate(t) == x.evaluate(1 / t)


def test_real_pole_count_sturm():
    # 1 / ((1 - 3T^2)(1 + T)): real roots at +-1/sqrt(3) and -1
    den = (QRational.const(1) - T(2, 3)) * (QRational.const(1) + T(1))
    x = den.inverse()
    assert x.real_pole_count(0, 1) == 1
    assert x.real_pole_count(-2, 1) == 3
    assert x.real_pole_count(Fraction(2, 3), 1) == 0


def test_pole_order_at_sqrt():
    x = (QRational.const(1) - T(2, 3)).inverse()
    assert x.pole_order_at_sqrt(Fraction(1, 3), +1) == 1
    assert x.pole_order_at_sqrt(Fraction(1, 3), -1) == 1
    assert x.pole_order_at_sqrt(Fraction(1, 5), +1) == 0
    sq = x * x
    assert sq.pole_order_at_sqrt(Fraction(1, 3), +1) == 2


def test_geometric_tail():
    # sum_{v >= 2} (c T)^v = (cT)^2 / (1 - cT)
    g = geometric_tail(Fraction(1, 2), 1, 2)
    t = Fraction(1, 3)
    direct = sum((t / 2) ** v for v in range(2, 60))
    # compare against the closed form at t (truncation error is tiny and
    # exactness is what we assert, so use the closed form directly)
    assert g.evaluate(t) == (t / 2) ** 2 / (1 - t / 2)
    assert abs(g.evaluate(t) - direct) < Fraction(1, 10 ** 15)


def test_poly_divmod_and_gcd():
    a = Poly([Fraction(-1), Fraction(0), Fraction(1)])  # T^2 - 1
    b = Poly([Fraction(1), Fraction(1)])  # T + 1
    q, r = a.divmod(b)
    assert r.is_zero()
    assert q == Poly([Fraction(-1), Fraction(1)])
    g = a.gcd(b)
    # gcd is T + 1 up to a unit
    qq, rr = b.divmod(g)
    assert rr.is_zero()


frac = st.fractions(min_value=-3, max_value=3, max_denominator=4)
polys = st.lists(frac, min_size=1, max_size=4).map(Poly)


@settings(max_examples=50, deadline=None)
@given(polys, polys.filter(lambda p: not p.is_zero()),
       st.fractions(min_value=-2, max_value=2, max_denominator=5))
def test_qrational_eval_consistency(num, den, t):
    x = QRational(num, den)
    if den.eval(t) == 0:
        return
    assert x.evaluate(t) == num.eval(t) / den.eval(t)


# -- every operation lands in the normal form of the generic reduction ---------


def reduced(num, den):
    """num/den reduced the generic way, with no shortcut: divide by the
    gcd, make den monic, and 0 as 0/1."""
    if num.is_zero():
        return Poly(), Poly([1])
    g = num.gcd(den)
    num, den = num.divmod(g)[0], den.divmod(g)[0]
    lead = den.c[-1]
    return num.scale(1 / lead), den.scale(1 / lead)


def assert_normal_form(x, num, den):
    """x is num/den: the same coefficient lists as the generic reduction
    and as the public constructor, all of them Fractions."""
    want = reduced(num, den)
    generic = QRational(num, den)
    assert (x.num.c, x.den.c) == (want[0].c, want[1].c)
    assert (generic.num.c, generic.den.c) == (want[0].c, want[1].c)
    assert all(type(c) is Fraction for c in x.num.c + x.den.c)


# products of linear factors over a small set of roots, so that operands
# often share factors with each other
roots = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
                         Fraction(1, 3)])
small = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def product(lead, rs):
    out = Poly([lead])
    for r in rs:
        out = out * Poly([-r, 1])
    return out


qrationals = st.builds(
    lambda c, rn, d, rd: QRational(product(c, rn), product(d, rd)),
    small, st.lists(roots, max_size=3),
    small.filter(bool), st.lists(roots, max_size=3))


@settings(max_examples=100, deadline=None)
@given(qrationals, qrationals)
def test_operations_build_the_generic_normal_form(x, y):
    assert_normal_form(x + y, x.num * y.den + y.num * x.den, x.den * y.den)
    assert_normal_form(x - y, x.num * y.den + -(y.num * x.den), x.den * y.den)
    assert_normal_form(x * y, x.num * y.num, x.den * y.den)
    assert_normal_form(-x, -x.num, x.den)
    if not y.is_zero():
        assert_normal_form(x / y, x.num * y.den, x.den * y.num)
        assert_normal_form(y.inverse(), y.den, y.num)
    zero = QRational.const(0)
    assert_normal_form(x * zero, Poly(), Poly([1]))
    assert_normal_form(zero + x, x.num, x.den)


@settings(max_examples=100, deadline=None)
@given(small | st.integers(min_value=-3, max_value=3),
       st.integers(min_value=-4, max_value=4))
def test_constants_and_monomials_are_in_normal_form(c, k):
    assert_normal_form(QRational.const(c), Poly([c]), Poly([1]))
    if k >= 0:
        assert_normal_form(QRational.monomial(c, k), Poly([0] * k + [c]),
                           Poly([1]))
    else:
        assert_normal_form(QRational.monomial(c, k), Poly([c]),
                           Poly([0] * -k + [1]))
