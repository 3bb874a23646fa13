"""The integer kernel of the wave-packet calculus against the Fraction
formulas it replaced.

Each reference below is the former implementation, kept as an oracle:
the p-power fractional part and psi's phase, the pairing, the lattice
representative, the refinement offsets, the monomial rotation of a
cyclotomic scalar, the canonical form of a packet built from them, and
the packet operations on Fraction terms.  The kernel must agree with
them exactly, Fraction types included, and its integer rows must be the
numerators and denominators of the reference terms.
"""

import itertools
from fractions import Fraction
from operator import itemgetter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import cyc_terms
from padharm.characters import AdditiveCharacter, frac_part_ratio
from padharm.cyclotomic import CyclotomicScalar
from padharm.padic import FieldContext, QuadExtContext, val_p
from padharm.spaces import (
    Space,
    WavePacket,
    _mod_lattice,
    _offsets,
    e_space,
    f_space,
    matrix_space_f,
)


# -- reference oracles ---------------------------------------------------------


def ref_frac_part_p(x, p):
    x = Fraction(x)
    if x == 0:
        return Fraction(0)
    k = -val_p(x, p)
    if k <= 0:
        return Fraction(0)
    pk = p ** k
    num = x.numerator
    den = x.denominator
    dprime = den // (p ** val_p(den, p)) if den % p == 0 else den
    a = num * pow(dprime, -1, pk) % pk
    return Fraction(a, pk)


def ref_phase(psi, x):
    return ref_frac_part_p(Fraction(psi.F.p) ** psi.d * Fraction(x), psi.F.p)


def ref_pair(space, x, y):
    total = Fraction(0)
    for c, xi, j in zip(space.weights, x, space.pairing):
        if xi:
            yj = y[j]
            if yj:
                total += c * Fraction(xi) * Fraction(yj)
    return total


def ref_mod_lattice(x, a, p):
    x = Fraction(x)
    num, unit = x.numerator, x.denominator
    v = 0
    while unit % p == 0:
        unit //= p
        v += 1
    k = max(v, -a)
    if k + a == 0:
        return Fraction(0)
    mod = p ** (k + a)
    n = num * p ** (k - v)
    if unit == 1:
        if 0 <= n < mod:
            return x
        return Fraction(n % mod, p ** k)
    return Fraction(n * pow(unit, -1, mod) % mod, p ** k)


def ref_offsets(x, a, count, p):
    step = Fraction(p) ** a
    return [x + step * j for j in range(count)]


def ref_coset_offsets(x, a, count, p):
    """x + j p^a for j in range(count), one Fraction each."""
    n, d = x.numerator, x.denominator
    if a >= 0:
        step = p ** a * d
    else:
        step = d
        n *= p ** -a
        d *= p ** -a
    return [Fraction(n + j * step, d) for j in range(count)]


def ref_rotate(terms, s, c):
    """The terms of sum x e(r) times the monomial c e(s)."""
    t = {}
    for r, x in terms.items():
        r += s
        if r.numerator >= r.denominator:
            r -= 1
        t[r] = x * c
    return t


def ref_canonical_terms(space, terms):
    p = space.F.p
    rows = []
    for coeff, center, exps, freq in terms:
        if not isinstance(coeff, CyclotomicScalar):
            coeff = CyclotomicScalar.from_rational(coeff)
        exps = tuple(exps)
        newf = tuple(ref_mod_lattice(f, b, p)
                     for f, b in zip(freq, space.dual_exps(exps)))
        newc = tuple(ref_mod_lattice(c, a, p) for c, a in zip(center, exps))
        lam = tuple(Fraction(f) - nf for f, nf in zip(freq, newf))
        if any(lam):
            coeff = coeff * CyclotomicScalar.root_of_unity(
                ref_phase(space.psi, ref_pair(space, lam, center)))
        sort_key = (exps,
                    tuple((t.numerator, t.denominator) for t in newc),
                    tuple((t.numerator, t.denominator) for t in newf))
        rows.append((sort_key, (newc, exps, newf), coeff))
    rows.sort(key=itemgetter(0))
    out = []
    for _, run in itertools.groupby(rows, key=itemgetter(0)):
        total = CyclotomicScalar.zero()
        for _, key, coeff in run:
            total = total + coeff
        if not total.is_zero():
            out.append((total, *key))
    return out


# -- inputs --------------------------------------------------------------------

FIELDS = {p: FieldContext(p) for p in (3, 5)}
primes = st.sampled_from([3, 5])
conductors = st.sampled_from([-1, 0, 2])
# zero, ints and negatives, p-power and other denominators; 1/4 and 2/11
# keep their numerator as representative modulo 3 and 5 respectively
rationals = st.one_of(
    st.integers(min_value=-40, max_value=40),
    st.fractions(min_value=-12, max_value=12, max_denominator=90),
    st.sampled_from([Fraction(0), Fraction(1, 3 ** 5), Fraction(-7, 2 * 5 ** 3),
                     Fraction(2 * 3 ** 6, 5), Fraction(5 ** 4, 7),
                     Fraction(1, 4), Fraction(2, 11)]))


def _same(a, b):
    """Equal values of the same type."""
    return a == b and type(a) is type(b)


def _spaces(p, d):
    F = FIELDS[p]
    psi = AdditiveCharacter(F, d)
    ext = QuadExtContext(F, 2 if p == 3 else 5)
    return [f_space(F, psi, 1), f_space(F, psi, 2), e_space(ext, psi, 1),
            matrix_space_f(F, psi, 2),
            Space(F, psi, (Fraction(1, 2), Fraction(p, 7), Fraction(1, 2)),
                  pairing=(2, 1, 0))]


# -- the kernel against the oracles ----------------------------------------------


@settings(max_examples=200, deadline=None)
@given(rationals, primes, conductors)
@example(0, 3, -1)
@example(Fraction(1, 3), 3, 2)
@example(Fraction(-4, 9), 3, 0)
@example(Fraction(6, 25), 5, -1)
@example(Fraction(9, 2), 3, -1)
def test_phase_and_fractional_part(x, p, d):
    psi = AdditiveCharacter(FIELDS[p], d)
    # the int pair, also of num / den not in lowest terms
    for scale in (1, 6 * p):
        m, pk = frac_part_ratio(x.numerator * scale, x.denominator * scale,
                                p, 0)
        assert 0 <= m < pk
        assert _same(Fraction(m, pk), ref_frac_part_p(x, p))
    assert _same(Fraction(*psi._phase_pair(x)), ref_phase(psi, x))
    assert cyc_terms(psi(x)) == cyc_terms(CyclotomicScalar.root_of_unity(
        ref_phase(psi, x)))


@settings(max_examples=40, deadline=None)
@given(primes, conductors, st.data())
def test_pairing(p, d, data):
    for space in _spaces(p, d):
        x = data.draw(st.lists(rationals, min_size=space.dim,
                               max_size=space.dim))
        y = data.draw(st.lists(rationals, min_size=space.dim,
                               max_size=space.dim))
        assert _same(space.pair(x, y), ref_pair(space, x, y))


@settings(max_examples=200, deadline=None)
@given(rationals, st.integers(min_value=-4, max_value=4), primes)
def test_lattice_representative(x, a, p):
    x = Fraction(x)
    n, d = _mod_lattice(x.numerator, x.denominator, a, p)
    ref = ref_mod_lattice(x, a, p)
    assert (n, d) == (ref.numerator, ref.denominator)
    # unmoved exactly where the reference returned its input
    assert ((n, d) == (x.numerator, x.denominator)) == (ref is x or ref == x)


@settings(max_examples=100, deadline=None)
@given(rationals, st.integers(min_value=-3, max_value=3),
       st.integers(min_value=0, max_value=30), primes)
@example(0, -2, 30, 3)
def test_refinement_offsets(x, a, count, p):
    # the offsets of a representative, as the kernel holds one
    x = Fraction(x)
    n, d = _mod_lattice(x.numerator, x.denominator, a, p)
    x = Fraction(n, d)
    got = _offsets(n, d, a, count, p)
    ref = ref_coset_offsets(x, a, count, p)
    assert all(_same(g, r) for g, r in zip(ref, ref_offsets(x, a, count, p)))
    assert got == [(r.numerator, r.denominator) for r in ref]


keys = st.fractions(min_value=0, max_value=1, max_denominator=60).filter(
    lambda r: r < 1)
coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=6)
scalars = st.dictionaries(keys, coefficients.filter(bool), max_size=5).map(
    CyclotomicScalar)


@settings(max_examples=80, deadline=None)
@given(scalars, keys, st.one_of(st.just(Fraction(1)), coefficients.filter(bool)))
@example(CyclotomicScalar({Fraction(1, 3): 2}), Fraction(0), Fraction(1))
@example(CyclotomicScalar({Fraction(1, 2): 1, Fraction(1, 5): 3}),
         Fraction(1, 2), Fraction(1))
def test_monomial_rotation(a, s, c):
    m = CyclotomicScalar({s: c})
    # rotating a by m, in a's order (a single key when a is a monomial)
    ref = ref_rotate(cyc_terms(a), s, c)
    for prod in (a * m, m * a):
        assert list(cyc_terms(prod).items()) == list(ref.items())
        assert all(type(r) is Fraction and type(v) is Fraction
                   for r, v in cyc_terms(prod).items())


def _assert_canonical_form(space, terms):
    f = WavePacket(space, terms)
    ref = ref_canonical_terms(space, terms)
    assert len(f.terms) == len(ref)
    for got, want in zip(f.terms, ref):
        assert list(cyc_terms(got[0]).items()) == list(
            cyc_terms(want[0]).items())
        assert got[1:] == want[1:]
        assert all(type(t) is Fraction for t in got[1] + got[3])
    return f


def test_a_coordinate_that_keeps_its_numerator_still_moves():
    # 4 = 1 mod 3, so 1/4 is 1 modulo 3 Z_3: the center (lattice 3 O) and
    # the frequency (dual lattice 3 O at conductor -1) both move
    psi = AdditiveCharacter(FIELDS[3], -1)
    f = _assert_canonical_form(
        f_space(FIELDS[3], psi, 2),
        [(1, (Fraction(1, 4), 0), (1, 0), (0, Fraction(1, 4)))])
    assert f.terms[0][1][0] == 1 and f.terms[0][3][1] == 1


@settings(max_examples=80, deadline=None)
@given(primes, conductors, st.integers(min_value=0, max_value=4), st.data())
def test_canonical_form_and_refinement(p, d, which, data):
    space = _spaces(p, d)[which]
    n = space.dim
    terms = data.draw(st.lists(st.tuples(
        st.one_of(st.integers(min_value=-3, max_value=3), coefficients),
        st.lists(rationals, min_size=n, max_size=n),
        st.lists(st.integers(min_value=-2, max_value=2), min_size=n,
                 max_size=n),
        st.lists(rationals, min_size=n, max_size=n)), max_size=3))
    f = _assert_canonical_form(space, terms)
    # refinement by at most one step per coordinate and term, with the
    # reference offsets
    exps = tuple(min([t[2][i] for t in f.terms] + [0]) + 1 for i in range(n))
    out = []
    for c, x0, a, f0 in f.terms:
        na = tuple(max(e, ai) for e, ai in zip(exps, a))
        ranges = [ref_offsets(x, ai, p ** (e - ai), p)
                  for x, ai, e in zip(x0, a, na)]
        out += [(c, nx, na, f0) for nx in itertools.product(*ranges)]
    assert f.refined(exps).terms == WavePacket(space, out).terms


# -- the packet operations against the Fraction formulas -------------------------


def ref_fourier(space, terms):
    psi = space.psi
    return ref_canonical_terms(space, [
        (c * space.vol_lattice(a) * CyclotomicScalar.root_of_unity(
            ref_phase(psi, ref_pair(space, f0, x0))),
         tuple(-t for t in f0), space.dual_exps(a), x0)
        for c, x0, a, f0 in terms])


def ref_reflect(space, terms):
    return ref_canonical_terms(space, [
        (c, tuple(-t for t in x0), a, tuple(-t for t in f0))
        for c, x0, a, f0 in terms])


def ref_shift(space, terms, t):
    return ref_canonical_terms(space, [
        (c * CyclotomicScalar.root_of_unity(
            ref_phase(space.psi, -ref_pair(space, f0, t))),
         tuple(x + u for x, u in zip(x0, t)), a, f0)
        for c, x0, a, f0 in terms])


def ref_product(space, terms1, terms2):
    p = space.F.p
    out = []
    for c1, x1, a1, f1 in terms1:
        for c2, x2, a2, f2 in terms2:
            if all(u == v or val_p(u - v, p) >= min(s, t)
                   for u, v, s, t in zip(x1, x2, a1, a2)):
                out.append((c1 * c2,
                            tuple(u if s >= t else v
                                  for u, v, s, t in zip(x1, x2, a1, a2)),
                            tuple(map(max, a1, a2)),
                            tuple(u + v for u, v in zip(f1, f2))))
    return ref_canonical_terms(space, out)


def ref_refined(space, terms, exps):
    p = space.F.p
    out = []
    for c, x0, a, f0 in terms:
        na = tuple(map(max, exps, a))
        ranges = [ref_coset_offsets(x, ai, p ** (e - ai), p)
                  for x, ai, e in zip(x0, a, na)]
        out += [(c, nx, na, f0) for nx in itertools.product(*ranges)]
    return ref_canonical_terms(space, out)


def ref_evaluate(space, terms, x):
    p = space.F.p
    total = CyclotomicScalar.zero()
    for c, x0, a, f0 in terms:
        if all(u == v or val_p(u - v, p) >= ai
               for u, v, ai in zip(x, x0, a)):
            total = total + c * CyclotomicScalar.root_of_unity(
                ref_phase(space.psi, ref_pair(space, f0, x)))
    return total


def ref_equals(space, terms1, terms2):
    rows = terms1 + terms2
    if not rows:
        return True
    exps = tuple(map(max, zip(*(t[2] for t in rows))))
    a = ref_refined(space, terms1, exps)
    b = ref_refined(space, terms2, exps)
    return len(a) == len(b) and all(
        s[1:] == t[1:] and (s[0] - t[0]).is_zero() for s, t in zip(a, b))


def _assert_rows(f, ref):
    """f's integer rows are the reference terms' numerators and
    denominators, and its Fraction view is the reference."""
    def pairs(v):
        return tuple((t.numerator, t.denominator) for t in v)

    assert len(f.rows) == len(ref) == len(f.terms)
    for (c, C, a, G), (rc, x0, ra, f0), view in zip(f.rows, ref, f.terms):
        assert list(cyc_terms(c).items()) == list(cyc_terms(rc).items())
        assert (C, a, G) == (pairs(x0), ra, pairs(f0))
        assert all(type(n) is int and type(d) is int for n, d in C + G)
        assert view[1:] == (x0, ra, f0) and view[0] is c
        assert all(type(t) is Fraction for t in view[1] + view[3])


def _packet_terms(n, exps):
    return st.lists(st.tuples(
        st.one_of(st.integers(min_value=-3, max_value=3), coefficients),
        st.lists(rationals, min_size=n, max_size=n),
        st.lists(exps, min_size=n, max_size=n),
        st.lists(rationals, min_size=n, max_size=n)), max_size=3)


@settings(max_examples=60, deadline=None)
@given(primes, conductors, st.integers(min_value=0, max_value=4), st.data())
def test_packet_operations_against_the_fraction_formulas(p, d, which, data):
    space = _spaces(p, d)[which]
    n = space.dim
    exps = st.integers(min_value=-2, max_value=2)
    f = WavePacket(space, data.draw(_packet_terms(n, exps)))
    g = WavePacket(space, data.draw(_packet_terms(n, exps)))
    tf, tg = list(f.terms), list(g.terms)
    _assert_rows(f, ref_canonical_terms(space, tf))
    _assert_rows(f.fourier(), ref_fourier(space, tf))
    _assert_rows(f.reflect(), ref_reflect(space, tf))
    _assert_rows(f * g, ref_product(space, tf, tg))
    t = tuple(Fraction(u) for u in data.draw(
        st.lists(rationals, min_size=n, max_size=n)))
    _assert_rows(f.shift(t), ref_shift(space, tf, t))
    for x in (data.draw(st.lists(rationals, min_size=n, max_size=n)),
              tf[0][1] if tf else (0,) * n):
        x = tuple(Fraction(t) for t in x)
        got, want = f.evaluate(x), ref_evaluate(space, tf, x)
        assert list(cyc_terms(got).items()) == list(cyc_terms(want).items())


@settings(max_examples=40, deadline=None)
@given(primes, conductors, st.integers(min_value=0, max_value=4),
       st.integers(min_value=-2, max_value=1), st.data())
def test_refinement_and_equality_against_the_fraction_formulas(
        p, d, which, lo, data):
    # exponents within one step of lo keep each refinement below p^dim
    # rows per term
    space = _spaces(p, d)[which]
    n = space.dim
    exps = st.integers(min_value=lo, max_value=lo + 1)
    f = WavePacket(space, data.draw(_packet_terms(n, exps)))
    g = WavePacket(space, data.draw(_packet_terms(n, exps)))
    tf, tg = list(f.terms), list(g.terms)
    common = tuple(map(max, zip(*(t[2] for t in tf + tg)))) if tf + tg \
        else (lo + 1,) * n
    _assert_rows(f.refined(common), ref_refined(space, tf, common))
    ff = f.fourier().fourier()

    def total(*packets):
        return WavePacket(space, [t for h in packets for t in h.terms])

    for a, b in ((f, g), (ff, f.reflect()), (f, f.refined(common)),
                 (f, total(f, g, g.scale(-1))),
                 (total(f, g), total(g, f.scale(2), f.scale(-1)))):
        assert a.equals(b) == ref_equals(space, list(a.terms), list(b.terms))
    assert ff.equals(f.reflect())
    assert f.equals(f.refined(common))
