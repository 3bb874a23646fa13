from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import FractionCyclotomic, cyc_terms, cyclotomic_poly
from padharm.cyclotomic import CyclotomicScalar, _normal, sqrt_rational_power


def e(r):
    return CyclotomicScalar.root_of_unity(Fraction(r))


def test_half_turn_is_minus_one():
    assert (e("1/2") + CyclotomicScalar.one()).is_zero()


def test_third_roots_sum_to_zero():
    total = e(0) + e("1/3") + e("2/3")
    assert total.is_zero()


def test_products_add_rotations():
    assert (e("1/3") * e("1/3") - e("2/3")).is_zero()
    assert (e("1/2") * e("1/2") - e(0)).is_zero()


def test_ne_is_the_negation_of_eq():
    # the default __ne__ inverts __eq__ and passes NotImplemented on, so a
    # type that is not a scalar compares unequal
    x = e("1/3") + e("2/3")
    assert not (x != -1) and not (x != CyclotomicScalar.from_rational(-1))
    assert x != 1 and x != e("1/3") and x != "-1"


def test_as_rational():
    assert CyclotomicScalar.from_rational(Fraction(5, 7)).as_rational() == \
        Fraction(5, 7)
    assert e("1/3").as_rational() is None
    # e(1/3) + e(2/3) = -1 is rational even though neither term is
    assert (e("1/3") + e("2/3")).as_rational() == -1


def test_the_prime_bound_of_the_zero_test_is_k_plus_one():
    # a row of p - 1 = K keys meets the relation of p = K + 1: -e(1/2) and
    # -(e(1/p) + ... + e((p-1)/p)) are 1
    assert (-e("1/2")).as_rational() == 1
    for p in (3, 5, 7):
        x = -sum((e(Fraction(b, p)) for b in range(1, p)),
                 CyclotomicScalar.zero())
        assert len(x.coeffs) == p - 1 and x.as_rational() == 1
        assert (x - 1).is_zero() and x == 1


P, Q = 10 ** 20 + 39, 10 ** 19 + 51  # primes


def test_conductors_far_past_any_dense_vector():
    # the zero test reads the keys, not a vector of length n
    x = e(Fraction(1, P)) + e(Fraction(2, P))
    assert x.n == P and not x.is_zero() and x.as_rational() is None
    assert x == e(Fraction(2, P)) + e(Fraction(1, P)) and x != 2
    y = e(Fraction(1, P)) * e(Fraction(1, Q))
    assert y.n == P * Q and y - e(Fraction(P + Q, P * Q)) == 0
    # e(1/(2P)) + e(1/(2P) + 1/2) is 0
    assert (e(Fraction(1, 2 * P)) + e(Fraction(P + 1, 2 * P))).is_zero()
    # e(1/3) + e(2/3) = -1, stored at 3 P Q
    w = e(Fraction(1, P)) + e(Fraction(1, Q))
    z = e("1/3") + e("2/3") + w
    assert z.n == 3 * P * Q and len(z.coeffs) == 4
    assert z.as_rational() is None and not z.is_zero()
    assert (z - w).n == 3 * P * Q and (z - w).as_rational() == -1
    assert z - w == -1 and z - w + 1 == 0 and z != w - 1 + e(Fraction(1, P))
    assert hash(z - w) == hash(-1)


def test_conj_negates_rotation():
    assert (e("1/3").conj() - e("2/3")).is_zero()


def test_sqrt_rational_power():
    # even powers of sqrt(q) are rational
    assert sqrt_rational_power(3, 2).as_rational() == 3
    assert sqrt_rational_power(3, -4).as_rational() == Fraction(1, 9)
    # odd powers square to the right rational
    s = sqrt_rational_power(3, 1)
    assert (s * s).as_rational() == 3


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
cycs = st.lists(
    st.tuples(st.fractions(min_value=0, max_value=1, max_denominator=8),
              rationals),
    min_size=0, max_size=4,
).map(lambda ts: sum((CyclotomicScalar({r: c}) for r, c in ts),
                     CyclotomicScalar.zero()))


@settings(max_examples=60, deadline=None)
@given(cycs, cycs, cycs)
def test_ring_axioms(a, b, c):
    assert ((a + b) * c - (a * c + b * c)).is_zero()
    assert ((a * b) - (b * a)).is_zero()
    assert ((a + b) - (b + a)).is_zero()


@settings(max_examples=40, deadline=None)
@given(cycs, cycs)
def test_conj_is_multiplicative(a, b):
    assert ((a * b).conj() - a.conj() * b.conj()).is_zero()


def assert_normal(x):
    """A conductor n >= 1, int keys in [0, n), nonzero int values and one
    denominator den >= 1 that shares no factor with all of them, zero
    stored only as (1, {}, 1); a view with Fraction keys in [0, 1) and
    nothing left for the public constructor to normalize."""
    assert type(x.n) is int and x.n >= 1
    assert type(x.den) is int and x.den >= 1
    for k, c in x.coeffs.items():
        assert type(k) is int and 0 <= k < x.n
        assert type(c) is int and c != 0
    assert gcd(x.den, *x.coeffs.values()) == 1
    if not x.coeffs:
        assert (x.n, x.den) == (1, 1)
    terms = cyc_terms(x)
    for r, c in terms.items():
        assert type(r) is Fraction and 0 <= r < 1
        assert type(c) is Fraction and c != 0
    assert terms == cyc_terms(CyclotomicScalar(terms))


@settings(max_examples=80, deadline=None)
@given(cycs, cycs, rationals,
       st.fractions(min_value=-3, max_value=3, max_denominator=12))
def test_operations_stay_in_normal_form(a, b, q, r):
    for x in (a + b, a - b, a * b, -a, a.conj(), a + q, q + (-a), a * q,
              a * e(r), a * (b - b), (e(0) + e("1/2")) * (e(0) - e("1/2")),
              CyclotomicScalar.from_rational(q),
              CyclotomicScalar.root_of_unity(r), CyclotomicScalar.zero(),
              CyclotomicScalar.one()):
        assert_normal(x)


def test_public_constructor_normalizes_raw_input():
    x = CyclotomicScalar({
        Fraction(5, 4): 2, Fraction(1, 4): -2,  # collide after % 1, cancel
        Fraction(-1, 3): 0,                      # zero coefficient
        3: Fraction(1, 2),                       # key outside [0, 1)
        "1/2": 1, Fraction(3, 2): 1,             # collide after % 1, add
        Fraction(-2, 3): Fraction(1, 3),         # negative key
    })
    assert cyc_terms(x) == {Fraction(0): Fraction(1, 2), Fraction(1, 2): 2,
                       Fraction(1, 3): Fraction(1, 3)}
    assert_normal(x)
    assert cyc_terms(CyclotomicScalar({0: 0})) == {}


def test_equal_values_at_different_conductors_hash_alike():
    a = CyclotomicScalar({Fraction(1, 3): 1})
    b = CyclotomicScalar({Fraction(5, 6): -1})  # e(1/3) = -e(1/3 + 1/2)
    assert a == b and len({a, b}) == 1


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(
           st.fractions(min_value=0, max_value=1, max_denominator=12)
           .filter(lambda r: r < 1),
           st.integers(min_value=-3, max_value=3).filter(bool),
           min_size=1, max_size=4),
       st.sampled_from((2, 3, 5, 7)), st.data())
def test_rewriting_at_a_larger_conductor_keeps_eq_and_hash(terms, l, data):
    # c e(r) = -c (e(r + 1/l) + ... + e(r + (l-1)/l)): the l-th roots of
    # unity sum to zero, so x is rewritten at conductor lcm(n, l)
    x = CyclotomicScalar(terms)
    terms = cyc_terms(x)
    r = data.draw(st.sampled_from(sorted(terms)))
    c = terms[r]
    rewritten = dict(terms)
    del rewritten[r]
    for j in range(1, l):
        s = (r + Fraction(j, l)) % 1
        rewritten[s] = rewritten.get(s, 0) - c
    y = CyclotomicScalar(rewritten)
    assert y == x
    assert hash(y) == hash(x)


def test_a_sum_at_a_larger_conductor_reduces_as_before():
    a = e("1/3") + 2
    x = a + e("1/5") - e("1/5")
    assert (a.n, x.n) == (3, 15)
    assert cyc_terms(x) == cyc_terms(a)
    assert x._reduced() == a._reduced() and x == a


@settings(max_examples=60, deadline=None)
@given(cycs, cycs)
# a sum that cancels at conductor 2 is zero at conductor 1, as a + b - b is
@example(e("1/2") - e("1/2"), CyclotomicScalar.one())
def test_adding_and_removing_b_keeps_the_reduced_form(a, b):
    x = a + b - b
    assert x.n % a.n == 0
    assert x._reduced() == a._reduced() and x == a


def _moebius(n):
    mu, m, d = 1, n, 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            mu = -mu
        d += 1
    return -mu if m > 1 else mu


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _exact_quotient(num, den):
    """num / den for int polynomials (little-endian), den monic; the
    remainder must be zero."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = num[i + len(den) - 1]
        for j, d in enumerate(den):
            num[i + j] -= c * d
    assert not any(num)
    return q


def test_cyclotomic_poly_matches_the_moebius_product():
    # Phi_n = prod over d | n of (x^d - 1)^mu(n/d), on int polynomials and
    # independent of the library's repeated division; runs without sympy
    for n in range(1, 151):
        num, den = [1], [1]
        for d in range(1, n + 1):
            mu = _moebius(n // d) if n % d == 0 else 0
            if mu:
                factor = [-1] + [0] * (d - 1) + [1]
                if mu == 1:
                    num = _poly_mul(num, factor)
                else:
                    den = _poly_mul(den, factor)
        assert list(cyclotomic_poly(n)) == _exact_quotient(num, den)


def test_cyclotomic_poly_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for n in range(1, 151):
        want = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()
        assert list(cyclotomic_poly(n)) == [int(c) for c in reversed(want)]


# -- against the Fraction-keyed oracle --------------------------------------

ORACLE_CONDUCTORS = (1, 2, 3, 4, 5, 8, 9, 12, 25, 27, 36, 60)

# c e(k/n), stored at conductor n even where k/n has a smaller denominator
leaves = st.tuples(st.just("leaf"), st.sampled_from(ORACLE_CONDUCTORS),
                   st.integers(min_value=0, max_value=59), rationals)
chains = st.recursive(leaves, lambda kids: st.one_of(
    st.tuples(st.sampled_from(("+", "-", "*")), kids, kids),
    st.tuples(st.sampled_from(("neg", "conj")), kids)), max_leaves=8)


def _both(chain, out):
    """The value of chain in both implementations, appending the pair of
    every node to out."""
    op, *args = chain
    if op == "leaf":
        n, k, c = args
        k %= n
        pair = (_normal(n, {k: c.numerator}, c.denominator) if c
                else CyclotomicScalar.zero(),
                FractionCyclotomic({Fraction(k, n): c} if c else {}))
    elif op in ("neg", "conj"):
        x, y = _both(args[0], out)
        pair = (-x, -y) if op == "neg" else (x.conj(), y.conj())
    else:
        (x1, y1), (x2, y2) = _both(args[0], out), _both(args[1], out)
        pair = {"+": (x1 + x2, y1 + y2), "-": (x1 - x2, y1 - y2),
                "*": (x1 * x2, y1 * y2)}[op]
    out.append(pair)
    return pair


@settings(max_examples=100, deadline=None)
@given(chains, chains)
def test_int_exponents_agree_with_the_fraction_oracle(chain1, chain2):
    pairs = []
    x, y = _both(chain1, pairs)
    _both(("+", ("-", chain1, chain2), chain2), pairs)  # last: equal to x
    assert pairs[-1][0] == x and hash(pairs[-1][0]) == hash(x)
    for x2, y2 in pairs:
        if not (y - y2)._reduced()[1]:
            assert x == x2 and hash(x) == hash(x2)
    for x, y in pairs:
        assert_normal(x)
        assert list(cyc_terms(x).items()) == list(y.terms.items())
        assert repr(x) == repr(y)
        r = y.as_rational()
        assert x._reduced() == (None if r is None else r * x.den)
        assert x.is_zero() == (not y._reduced()[1])
        assert x.as_rational() == r
        assert hash(x) == (1 if r is None else hash(r))
