from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import FractionPoly, FractionQRational, monic_view, qrational
from padharm.errors import PoleAtEvaluationPoint
from padharm.qrational import (
    QRational,
    _gcd,
    _prem,
    _quo,
    geometric_tail,
)


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


def _root_order(den, r):
    """The multiplicity of the rational root r of a FractionPoly."""
    order = 0
    while den.eval(r) == 0:
        order += 1
        den = den.derivative()
    return order


@pytest.mark.parametrize("s0", [Fraction(1, 4), Fraction(4, 9), Fraction(9)])
def test_pole_order_at_a_rational_square_root(s0):
    # 1 / ((1 - T/r)^2 (1 + T/r)) has a double pole at T = r = sqrt(s0)
    # and a simple one at -r; at a square s0 the two signs differ
    r = Fraction(isqrt(s0.numerator), isqrt(s0.denominator))
    assert r * r == s0
    one = QRational.const(1)
    below = one - T(1, 1 / r)
    x = (below * below * (one + T(1, 1 / r))).inverse()
    assert x.pole_order_at_sqrt(s0, +1) == 2
    assert x.pole_order_at_sqrt(s0, -1) == 1
    den = FractionPoly([Fraction(c) for c in x.D])
    for sign in (1, -1):
        assert x.pole_order_at_sqrt(s0, sign) == _root_order(den, sign * r)
    # (1 - 2T)^(-1) at s0 = 1/4: a simple pole at 1/2, none at -1/2
    y = (one - T(1, 2)).inverse()
    assert y.pole_order_at_sqrt(Fraction(1, 4), +1) == 1
    assert y.pole_order_at_sqrt(Fraction(1, 4), -1) == 0


def test_geometric_tail():
    # sum_{v >= 2} (c T)^v = (cT)^2 / (1 - cT)
    g = geometric_tail(Fraction(1, 2), 1, 2)
    t = Fraction(1, 3)
    direct = sum((t / 2) ** v for v in range(2, 60))
    # compare against the closed form at t (truncation error is tiny and
    # exactness is what we assert, so use the closed form directly)
    assert g.evaluate(t) == (t / 2) ** 2 / (1 - t / 2)
    assert abs(g.evaluate(t) - direct) < Fraction(1, 10 ** 15)
    # the direct construction against the operations, Laurent starts too
    for c in (Fraction(1, 2), -1, 3, Fraction(-2, 3)):
        for k in (1, 2, 3):
            x = QRational.monomial(c, k)
            for start in range(-2, 3):
                head = QRational.monomial(Fraction(c) ** start, k * start)
                assert geometric_tail(c, k, start) == \
                    head / (QRational.const(1) - x)


def test_poly_divmod_and_gcd():
    # the int kernels: exact division, pseudo-remainder and primitive gcd
    a = (-1, 0, 1)  # T^2 - 1
    b = (1, 1)  # T + 1
    assert _quo(a, b) == (-1, 1)
    assert _gcd(a, b) == (1, 1)
    # the gcd over Q is primitive with a positive leading coefficient
    assert _gcd((-6, 0, 6), (-2, -2)) == (1, 1)
    assert _gcd((0, 0, 3, 3), (0, 4)) == (0, 1)
    assert _gcd((1, 0, 1), (1, 1)) == (1,)
    # lc(b)^(deg a - deg b + 1) a = q b + prem: 4 (T^2 + 1) = (2T - 1)(2T + 1) + 5
    assert _prem((1, 0, 1), (1, 2)) == (5,)
    assert _prem((1, 0, 1), (1, -2)) == (5,)
    assert _prem((0, 0, 1), (1, -1, 0, 1)) == (0, 0, 1)


ints = st.integers(min_value=-6, max_value=6)
int_polys = st.lists(ints, min_size=1, max_size=4)


@settings(max_examples=50, deadline=None)
@given(int_polys, int_polys.filter(any),
       st.fractions(min_value=-2, max_value=2, max_denominator=5))
def test_qrational_eval_consistency(num, den, t):
    x = qrational(num, den)
    num, den = FractionPoly(num), FractionPoly(den)
    if den.eval(t) == 0:
        return
    assert x.evaluate(t) == num.eval(t) / den.eval(t)


# -- every operation lands in the normal form of the generic reduction ---------


def assert_normal_form(x, num, den):
    """x is num/den for int coefficient tuples: the same tuples as the
    reducing constructor of the oracles, and the same monic view, all of
    it Fractions, and repr as the Fraction oracle's generic reduction."""
    generic = qrational(num, den)
    assert (x.N, x.D) == (generic.N, generic.D)
    want = FractionQRational(FractionPoly(num), FractionPoly(den))
    assert monic_view(x) == (want.num.c, want.den.c)
    assert all(type(c) is Fraction for c in sum(monic_view(x), []))
    assert repr(x) == repr(want)


def mul(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def add(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
            for i in range(n)]


def neg(a):
    return [-x for x in a]


# products of linear factors over a small set of roots, so that operands
# often share factors with each other; 1/3 is the root of 3T - 1
roots = st.sampled_from([(0, 1), (-1, 1), (1, 1), (-2, 1), (-1, 3)])
small = st.integers(min_value=-6, max_value=6)


def product(lead, rs):
    out = [lead]
    for r in rs:
        out = mul(out, list(r))
    return out


qrationals = st.builds(
    lambda c, rn, d, rd: qrational(product(c, rn), product(d, rd)),
    small, st.lists(roots, max_size=3),
    small.filter(bool), st.lists(roots, max_size=3))


@settings(max_examples=100, deadline=None)
@given(qrationals, qrationals)
def test_operations_build_the_generic_normal_form(x, y):
    N1, D1, N2, D2 = list(x.N), list(x.D), list(y.N), list(y.D)
    assert_normal_form(x + y, add(mul(N1, D2), mul(N2, D1)), mul(D1, D2))
    assert_normal_form(x - y, add(mul(N1, D2), neg(mul(N2, D1))),
                       mul(D1, D2))
    assert_normal_form(x * y, mul(N1, N2), mul(D1, D2))
    assert_normal_form(-x, neg(N1), D1)
    if not y.is_zero():
        assert_normal_form(x / y, mul(N1, D2), mul(D1, N2))
        assert_normal_form(y.inverse(), D2, N2)
    zero = QRational.const(0)
    assert_normal_form(x * zero, [], [1])
    assert_normal_form(zero + x, N1, D1)


@settings(max_examples=100, deadline=None)
@given(st.fractions(min_value=-3, max_value=3, max_denominator=3)
       | st.integers(min_value=-3, max_value=3),
       st.integers(min_value=-4, max_value=4))
def test_constants_and_monomials_are_in_normal_form(c, k):
    c = Fraction(c)
    x = QRational.const(c)
    assert monic_view(x) == ([c] if c else [], [1])
    assert (x.N, x.D) == ((c.numerator,) if c else (), (c.denominator,))
    want = FractionQRational.monomial(c, k)
    got = QRational.monomial(c, k)
    assert monic_view(got) == (want.num.c, want.den.c)
    assert_stored_form(got)


# -- the int representation against the Fraction oracle ------------------------


def assert_stored_form(x):
    """The invariants of the stored form: no zero leading coefficient,
    lc(D) > 0, no common content, and N, D coprime over Q."""
    N, D = x.N, x.D
    assert all(type(c) is int for c in N + D)
    assert D and D[-1] > 0 and (not N or N[-1])
    assert gcd(*N, *D) == 1
    if not N:
        assert D == (1,)
    elif len(N) > 1 and len(D) > 1:
        assert _gcd(N, D) == (1,)


# 1 - c T^k factors over few c and k, so that sums and quotients cancel
factor_c = st.sampled_from([1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-1, 3)])
factors = st.tuples(factor_c, st.integers(min_value=1, max_value=3),
                    st.booleans())
terms = st.tuples(st.fractions(min_value=-4, max_value=4, max_denominator=3),
                  st.integers(min_value=-2, max_value=2),
                  st.lists(factors, max_size=3))
expressions = st.lists(terms, min_size=1, max_size=3)


def build(lib, expression):
    """The sum of c T^k prod (1 - a T^j)^(+-1) over the terms, in `lib`."""
    total = lib.const(0)
    for c, k, fs in expression:
        term = lib.monomial(c, k)
        for a, j, up in fs:
            f = lib.const(1) - lib.monomial(a, j)
            term = term * f if up else term / f
        total = total + term
    return total


POINTS = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2),
          Fraction(-1, 2), Fraction(1, 3), Fraction(-3)]


def assert_matches(x, ox):
    assert_stored_form(x)
    assert monic_view(x) == (ox.num.c, ox.den.c)
    assert all(type(c) is Fraction for c in sum(monic_view(x), []))
    assert repr(x) == repr(ox)


def value_or_pole(qr, t):
    try:
        return qr.evaluate(t)
    except PoleAtEvaluationPoint as exc:
        return ("pole", str(exc))


@settings(max_examples=100, deadline=None)
@given(expressions, expressions)
def test_every_operation_matches_the_fraction_oracle(ex, ey):
    x, y = build(QRational, ex), build(QRational, ey)
    ox, oy = build(FractionQRational, ex), build(FractionQRational, ey)
    assert_matches(x, ox)
    assert_matches(y, oy)
    assert_matches(x + y, ox + oy)
    assert_matches(x - y, ox - oy)
    assert_matches(x * y, ox * oy)
    assert_matches(-x, -ox)
    if not y.is_zero():
        assert_matches(x / y, ox / oy)
        assert_matches(y.inverse(), oy.inverse())
    assert (x == y) == (ox == oy)
    if x == y:
        assert hash(x) == hash(y)
    if len(x.N) <= 1 and len(x.D) == 1:  # a constant
        assert x == x.evaluate(0) and hash(x) == hash(x.evaluate(0))
    for t in POINTS:
        got, want = value_or_pole(x, t), value_or_pole(ox, t)
        assert got == want
        assert type(got) is tuple or type(got) is Fraction
    assert_matches(x.substitute_reciprocal(), ox.substitute_reciprocal())
    for s0 in (Fraction(1, 3), Fraction(1, 5)):
        for sign in (1, -1):
            assert x.pole_order_at_sqrt(s0, sign) == ox.pole_order_at_sqrt(s0)
    for a, b in ((0, 1), (-2, 1)):
        assert x.real_pole_count(a, b) == ox.real_pole_count(a, b)


def test_one_function_has_one_stored_form():
    one = QRational.const(1)
    # (1 - T^2) / (1 - T) and 1 + T
    routes = [(one - T(2)) / (one - T(1)), one + T(1),
              qrational([1, 0, -1], [1, -1]), qrational([-6, -6], [-6])]
    assert len({(x.N, x.D) for x in routes}) == 1
    assert len({hash(x) for x in routes}) == 1
    assert routes[0].N == (1, 1) and routes[0].D == (1,)
    # a numerator and a denominator scaled by -6
    x = (T(2) - QRational.const(Fraction(1, 3))) / (T(1) + QRational.const(2))
    scaled = qrational([-6 * c for c in x.N], [-6 * c for c in x.D])
    assert (scaled.N, scaled.D) == (x.N, x.D) and hash(scaled) == hash(x)
    # R(1/T) twice is R, and a Laurent monomial turns into a polynomial
    for y in (x, T(-3, 2) * x, T(4) / (one - T(1, 5))):
        twice = y.substitute_reciprocal().substitute_reciprocal()
        assert (twice.N, twice.D) == (y.N, y.D) and hash(twice) == hash(y)
    r = T(-2).substitute_reciprocal()
    assert (r.N, r.D) == ((0, 0, 1), (1,))


def test_a_constant_hashes_as_its_value():
    for value in (1, 0, -3, Fraction(1, 2), Fraction(-7, 3)):
        x = QRational.const(value)
        assert x == value and hash(x) == hash(value)
        assert len({x, value}) == 1
        assert len({QRational.monomial(value, 0), Fraction(value)}) == 1
    # the merge of OrbitalResult keys is unchanged: equal keys still meet
    assert len({QRational.const(2), QRational.monomial(2, 0), T(1)}) == 2
