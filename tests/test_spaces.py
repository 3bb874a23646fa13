"""Schwartz functions as wave packets: evaluation, integration, Fourier
calculus, the constancy level read off the rows, and the independent
Riemann-sum transform oracle."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from padharm.config import RunConfig
from padharm.cyclotomic import CyclotomicScalar
from padharm.padic import FieldContext, QuadExtContext
from padharm.characters import AdditiveCharacter
from padharm.errors import ScaleExceeded, SchemaError
from padharm.suites import _random_packet
from padharm.padic import val_p
from padharm import spaces
from padharm.spaces import (
    WavePacket,
    _mod_lattice,
    e_space,
    f_space,
    matrix_space_f,
    riemann_fourier,
    s_space,
    tensor,
)

from oracles import cyc_terms


def setup_field(p=3):
    F = FieldContext(p)
    return F, AdditiveCharacter(F, 0)


def test_indicator_evaluate_and_integral():
    F, psi = setup_field()
    sp = f_space(F, psi, 1)
    f = WavePacket.indicator(sp, (1,))  # 1_{3O}
    assert f.evaluate((Fraction(3),)).as_rational() == 1
    assert f.evaluate((Fraction(1),)).as_rational() == 0
    assert f.integral().as_rational() == Fraction(1, 3)
    unit = WavePacket.indicator(sp, (0,))
    assert unit.integral().as_rational() == 1


def test_fourier_unit_lattice_self_dual():
    F, psi = setup_field()
    sp = f_space(F, psi, 2)
    unit = WavePacket.indicator(sp, (0, 0))
    assert unit.fourier().equals(unit)


def test_fourier_against_riemann_oracle():
    F, psi = setup_field()
    sp = f_space(F, psi, 1)
    f = WavePacket.indicator(sp, (1,), center=(Fraction(1, 3),),
                             freq=(Fraction(2, 3),))
    ft = f.fourier()
    for w in (Fraction(0), Fraction(1), Fraction(1, 3), Fraction(-2, 3)):
        direct = riemann_fourier(f, (w,))
        assert (ft.evaluate((w,)) - direct).as_rational() == 0


def test_double_fourier_is_reflection():
    F, psi = setup_field()
    sp = matrix_space_f(F, psi, 2)
    f = WavePacket.indicator(sp, (0, 1, -1, 0),
                             center=(1, Fraction(1, 3), 0, 2))
    assert f.fourier().fourier().equals(f.reflect())


def test_shift_phase_covariance():
    F, psi = setup_field()
    sp = f_space(F, psi, 1)
    f = WavePacket.indicator(sp, (1,), freq=(Fraction(1, 3),))
    t = (Fraction(1),)
    # FT(f(. - t))(w) = psi(<t, w>) FT(f)(w)
    lhs = f.shift(t).fourier()
    for w in (Fraction(0), Fraction(1, 3), Fraction(2, 3)):
        expect = psi(w * t[0]) * f.fourier().evaluate((w,))
        assert (lhs.evaluate((w,)) - expect).as_rational() == 0
    with pytest.raises(SchemaError):
        f.shift((1, 0))


def test_a_point_of_the_wrong_length_is_refused():
    # the indicator of O^2 would read 1 at (0, 0, 1/3) and 0 at (0,) if
    # the point were zipped against the rows
    F, psi = setup_field()
    f = WavePacket.indicator(f_space(F, psi, 2), 0)
    for x in ((0,), (0, 0, Fraction(1, 3))):
        with pytest.raises(SchemaError, match="evaluate dimension mismatch"):
            f.evaluate(x)
        with pytest.raises(SchemaError,
                           match="riemann_fourier dimension mismatch"):
            riemann_fourier(f, x)
    assert f.evaluate((0, 0)).as_rational() == 1


def test_convolution_indicator():
    F, psi = setup_field()
    sp = f_space(F, psi, 1)
    f = WavePacket.indicator(sp, (0,))
    conv = f.convolve_add(f)
    # 1_O * 1_O = 1_O (the lattice is a group of volume 1)
    assert conv.equals(f)


def test_pointwise_product_of_nested_indicators():
    F, psi = setup_field()
    sp = f_space(F, psi, 1)
    wide = WavePacket.indicator(sp, (-1,))
    narrow = WavePacket.indicator(sp, (1,))
    assert (wide * narrow).equals(narrow)


def test_refinement_preserves_values_and_integral():
    F, psi = setup_field()
    sp = f_space(F, psi, 1)
    f = WavePacket.indicator(sp, (0,), freq=(Fraction(1, 3),))
    g = f.refined((1,))
    for x in (Fraction(0), Fraction(1), Fraction(2), Fraction(3), Fraction(5)):
        assert (f.evaluate((x,)) - g.evaluate((x,))).as_rational() == 0
    assert (f.integral() - g.integral()).as_rational() == 0


def test_tensor_integral_splits():
    F, psi = setup_field()
    sp = f_space(F, psi, 1)
    f = WavePacket.indicator(sp, (1,))
    g = WavePacket.indicator(sp, (0,), freq=(Fraction(1, 3),))
    prod = tensor(f, g)
    lhs = prod.integral()
    rhs = f.integral() * g.integral()
    assert (lhs - rhs).as_rational() == 0


def test_extension_space_double_transform():
    F, psi = setup_field()
    ext = QuadExtContext(F, 2)
    for sp in (e_space(ext, psi, 1), s_space(ext, psi, 1)):
        f = WavePacket.indicator(sp, 0, center=tuple(
            Fraction(i, 3) for i in range(sp.dim)))
        assert f.fourier().fourier().equals(f.reflect())


def _fresh_space_fields(p, weights, pairing):
    """weights, pairing, _wv and _w as Space once computed them on every
    call, with no cache."""
    weights = tuple(Fraction(c) for c in weights)
    pairing = tuple(pairing) if pairing is not None else tuple(
        range(len(weights)))
    return (weights, pairing, tuple(val_p(c, p) for c in weights),
            tuple((c.numerator, c.denominator) for c in weights))


@pytest.mark.parametrize("p, delta", [(3, 2), (3, Fraction(3, 2)), (5, 10)])
def test_a_cached_space_is_a_fresh_one(p, delta):
    F, psi = setup_field(p)
    ext = QuadExtContext(F, delta)
    builders = [lambda: f_space(F, psi, 3), lambda: e_space(ext, psi, 2),
                lambda: spaces.e_minus_space(ext, psi, 2),
                lambda: matrix_space_f(F, psi, 3),
                lambda: spaces.matrix_space_e(ext, psi, 2),
                lambda: s_space(ext, psi, 2)]
    for build in builders:
        first, second = build(), build()
        fresh = _fresh_space_fields(p, first.weights, first.pairing)
        for sp in (first, second):
            assert (sp.weights, sp.pairing, sp._wv, sp._w) == fresh
            assert all(type(c) is Fraction for c in sp.weights)
        assert first == second
    # int, str and Fraction weights name one space; the valuations are
    # those of its own p
    for weights in ((1, 3), (Fraction(1), Fraction(3)), ("1", "3/1")):
        sp = spaces.Space(F, psi, weights, [0, 1])
        assert (sp.weights, sp.pairing, sp._wv, sp._w) == \
            _fresh_space_fields(p, (1, 3), (0, 1))
        assert sp._wv == ((0, 1) if p == 3 else (0, 0))


@pytest.mark.parametrize("p, delta", [(3, 2), (3, 3), (5, 2), (5, 5),
                                      (3, Fraction(3, 2))])
def test_a_cached_e_space_is_a_fresh_one(p, delta):
    # the E-space constructors key their cache on delta once: each space is
    # the Space of its weights and pairing, over the caller's F and psi,
    # from a new extension object as from the first
    F, psi = setup_field(p)
    for k in (1, 2, 3):
        t = spaces.transposition(k)
        shapes = {
            e_space: ((1, delta) * k, None),
            spaces.e_minus_space: ((delta,) * k, None),
            spaces.matrix_space_e: ((1, delta) * (k * k),
                                    [2 * i + h for i in t for h in (0, 1)]),
            s_space: ((delta,) * (k * k), t),
        }
        for build, (weights, pairing) in shapes.items():
            fresh = _fresh_space_fields(p, weights, pairing)
            for _ in range(2):
                ext = QuadExtContext(F, delta)
                sp = build(ext, psi, k)
                assert (sp.weights, sp.pairing, sp._wv, sp._w) == fresh
                assert sp.F is ext.F and sp.psi is psi
                assert sp == spaces.Space(F, psi, weights, pairing)
            # a bad space is still refused after the good ones
            with pytest.raises(SchemaError, match="weight-preserving"):
                spaces.Space(F, psi, (1, delta, delta), (1, 0, 2))


def test_a_bad_space_is_refused_after_a_good_one():
    # the checks run once per distinct input, and a refusal is not kept
    F, psi = setup_field()
    good = spaces.Space(F, psi, (1, 1, 2), (1, 0, 2))
    assert good._wv == (0, 0, 0)
    bad = [((1, 2, 2), (1, 0, 2), "weight-preserving involution"),
           ((1, 1, 2), (1, 2, 0), "weight-preserving involution"),
           ((1, 1, 2), (0, 0, 2), "not a permutation"),
           ((1, 1, 2), (1, 0, 3), "not a permutation"),
           ((1, 1, 0), (1, 0, 2), "weights must be nonzero")]
    for _ in range(2):
        for weights, pairing, message in bad:
            with pytest.raises(SchemaError, match=message):
                spaces.Space(F, psi, weights, pairing)
        assert spaces.Space(F, psi, (1, 1, 2), (1, 0, 2)) == good


@settings(max_examples=200, deadline=None)
@given(st.fractions(min_value=-20, max_value=20, max_denominator=200),
       st.integers(min_value=-3, max_value=3), st.sampled_from([2, 3, 5]))
def test_mod_lattice_is_the_z_p_representative(x, a, p):
    n, d = _mod_lattice(x.numerator, x.denominator, a, p)
    r = Fraction(n, d)
    assert (r.numerator, r.denominator) == (n, d)  # lowest terms
    assert 0 <= r < Fraction(p) ** a
    assert r.denominator == p ** val_p(r.denominator, p)
    assert x == r or val_p(x - r, p) >= a


def test_p_unit_denominators_are_canonical():
    # at p = 3, 1/2 is a unit: 1/2 + Z_3 = Z_3 and 1/6 + Z_3 = 2/3 + Z_3
    F, psi = setup_field()
    sp = f_space(F, psi, 1)
    unit = WavePacket.indicator(sp, 0)
    half = WavePacket.indicator(sp, 0, center=(Fraction(1, 2),))
    assert half.terms == unit.terms
    assert half.equals(unit)
    sixth = WavePacket.indicator(sp, 0, center=(Fraction(1, 6),))
    assert sixth.terms[0][1] == (Fraction(2, 3),)
    # psi(x/2) is constant on 1/3 + Z_3: the frequency 1/2 folds into
    # the coefficient psi(1/6)
    f = WavePacket.indicator(sp, 0, center=(Fraction(1, 3),),
                             freq=(Fraction(1, 2),))
    ((c, center, _, freq),) = f.terms
    assert center == (Fraction(1, 3),) and freq == (Fraction(0),)
    assert (c - psi(Fraction(1, 6))).is_zero()
    for x in (Fraction(1, 3), Fraction(4, 3), Fraction(-2, 3), Fraction(5, 6)):
        assert (f.evaluate((x,)) - psi(x / 2)).is_zero()
    assert f.evaluate((Fraction(0),)).is_zero()


def test_refinement_of_a_wide_lattice_is_exact():
    F, psi = setup_field()
    sp = f_space(F, psi, 1)
    wide = WavePacket.indicator(sp, -1)
    thirds = [WavePacket.indicator(sp, 0, center=(Fraction(j, 3),))
              for j in range(3)]
    assert wide.equals(WavePacket(sp, [t for h in thirds for t in h.terms]))
    assert not thirds[0].equals(thirds[1])
    assert [t[1] for t in wide.refined((0,)).terms] == [
        (Fraction(0),), (Fraction(1, 3),), (Fraction(2, 3),)]


def test_a_partly_cancelling_pair_refines_the_rest():
    # the rows of f cancel; h against its refinement is decided on the
    # rows left, which must be refined to be compared
    F, psi = setup_field()
    sp = f_space(F, psi, 2)
    f = WavePacket(sp, [(2, (Fraction(1, 3), 0), (0, 1), (Fraction(1, 3), 0)),
                        (-1, (0, 0), (-1, 0), (0, 0))])
    h = WavePacket(sp, [(1, (0, Fraction(2, 3)), (0, -1), (0, Fraction(2, 3)))])
    refined = h.refined((1, 1))
    assert len(refined.rows) == 27
    left = WavePacket(sp, list(f.terms + h.terms))
    assert left.equals(WavePacket(sp, list(f.terms + refined.terms)))
    (c, x, a, g), *rest = refined.terms
    changed = WavePacket(sp, list(f.terms) + [(c + 1, x, a, g)] + rest)
    assert not left.equals(changed)
    assert not changed.equals(left)


def _pinned_cases():
    F, psi = setup_field()
    ext = QuadExtContext(F, 2)
    third = Fraction(1, 3)
    return {
        "f": (f_space(F, psi, 1),
              [(CyclotomicScalar({third: 1, 0: 2}), (third,), (-1,),
                (Fraction(2, 3),)),
               (Fraction(-1, 2), (Fraction(4, 9),), (1,), (Fraction(1, 9),))],
              [(2, (Fraction(2, 3),), (0,), (0,)), (1, (0,), (1,), (0,))]),
        "e": (e_space(ext, psi, 1),
              [(1, (third, 0), (-1, 0), (0, Fraction(2, 3)))],
              [(1, (0, third), (1, 1), (0, 0)), (-1, (0, 0), (0, -1), (0, 0))]),
        "m2": (matrix_space_f(F, psi, 2),
               [(1, (third, 0, Fraction(2, 3), 1), (-1, 0, 1, 0),
                 (0, third, 0, Fraction(2, 9)))],
               [(Fraction(1, 2), (0, 0, third, 0), (0, 0, 1, 2), (0, 0, 0, 0))]),
    }


# The canonical form of a packet: the repr of its terms, frozen so that a
# rewrite of the scalar or packet kernels cannot move it unnoticed.
PINNED = {
    "f": (
        "((Cyc(-1/6*e(4/81)), (Fraction(2, 9),), (-1,), (Fraction(4, 9),)), "
        "(Cyc(6 + 3*e(1/3)), (Fraction(7, 3),), (1,), (Fraction(0, 1),)))",
        "((Cyc(2/3 + 1/3*e(1/3)), (Fraction(0, 1),), (-1,), "
        "(Fraction(2, 3),)),)",
    ),
    "e": (
        "((Cyc(3), (Fraction(0, 1), Fraction(1, 3)), (1, 0), "
        "(Fraction(0, 1), Fraction(0, 1))),)",
        "((Cyc(1/9*e(5/9)), (Fraction(0, 1), Fraction(1, 3)), (-1, 0), "
        "(Fraction(0, 1), Fraction(2, 3))),)",
    ),
    "m2": (
        "((Cyc(1*e(2/9)), (Fraction(0, 1), Fraction(0, 1), Fraction(0, 1), "
        "Fraction(7, 9)), (1, -1, 0, 0), (Fraction(0, 1), Fraction(0, 1), "
        "Fraction(2, 3), Fraction(0, 1))),)",
        "((Cyc(1/54*e(2/9)), (Fraction(0, 1), Fraction(0, 1), Fraction(1, 1), "
        "Fraction(0, 1)), (-1, 0, 1, 0), (Fraction(0, 1), Fraction(0, 1), "
        "Fraction(0, 1), Fraction(2, 9))),)",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_canonical_packets_are_pinned(name):
    sp, tf, tg = _pinned_cases()[name]
    f, g = WavePacket(sp, tf), WavePacket(sp, tg)
    fourier, conv = PINNED[name]
    assert repr(f.fourier().terms) == fourier
    assert repr(f.convolve_add(g).terms) == conv


# The three identities of the Fourier calculus, each checked by two
# routes, on the extension spaces at a ramified delta at p = 3 and at an
# inert and a ramified delta at p = 5.
EXTENSIONS = [(3, 3), (5, 2), (5, 5)]


def _extension_spaces(p, delta):
    F = FieldContext(p)
    psi = AdditiveCharacter(F, 0)
    ext = QuadExtContext(F, delta)
    return [e_space(ext, psi, 1), s_space(ext, psi, 1)]


def _packets(p, n, lo):
    """Packets of up to three terms with centers and frequencies in
    (1/p) Z and exponents in [lo, 1]."""
    coords = st.lists(st.integers(min_value=-p, max_value=p).map(
        lambda j: Fraction(j, p)), min_size=n, max_size=n)
    return st.lists(st.tuples(
        st.fractions(min_value=-4, max_value=4, max_denominator=3),
        coords,
        st.lists(st.integers(min_value=lo, max_value=1), min_size=n,
                 max_size=n),
        coords), min_size=1, max_size=3)


@pytest.mark.parametrize("p, delta", EXTENSIONS)
@pytest.mark.parametrize("which", [0, 1], ids=["e", "s"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_fourier_identities_on_extension_spaces(p, delta, which, data):
    sp = _extension_spaces(p, delta)[which]
    n = sp.dim
    f = WavePacket(sp, data.draw(_packets(p, n, -1)))
    g = WavePacket(sp, data.draw(_packets(p, n, -1)))
    # FFf = f(-x), as packets and at a point
    assert f.fourier().fourier().equals(f.reflect())
    w = tuple(data.draw(st.lists(st.integers(min_value=-p, max_value=p),
                                 min_size=n, max_size=n)))
    w = tuple(Fraction(j, p) for j in w)
    assert (f.fourier().fourier().evaluate(w)
            - f.evaluate(tuple(-t for t in w))).is_zero()
    # the integral of a convolution is the product of the integrals
    conv = f.convolve_add(g)
    assert (conv.integral() - f.integral() * g.integral()).is_zero()
    # the cell-sum transform against the packet transform, at exponents
    # >= 0, where the cell sum's offsets are exact
    h = WavePacket(sp, data.draw(_packets(p, n, 0)))
    assert (riemann_fourier(h, w) - h.fourier().evaluate(w)).is_zero()


@pytest.mark.parametrize("p, delta", [(3, 2)] + EXTENSIONS)
@pytest.mark.parametrize("which", [0, 1], ids=["e", "s"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_integral_is_the_transform_at_zero(p, delta, which, data):
    # the row sum of `integral` against the transform route, dict for dict
    sp = _extension_spaces(p, delta)[which]
    f = WavePacket(sp, data.draw(_packets(p, sp.dim, -1)))
    g = WavePacket(sp, data.draw(_packets(p, sp.dim, -1)))
    zero = (0,) * sp.dim
    for h in (f, f * g, f.fourier(), f.convolve_add(g)):
        assert cyc_terms(h.integral()) == cyc_terms(
            h.fourier().evaluate(zero))


# the spaces of the fourier suite, in its fixed context
_CTX = RunConfig()
_F, _PSI, _EXT = _CTX.field(), _CTX.psi(), _CTX.ext()
FOURIER_SPACES = [
    f_space(_F, _PSI, 1), f_space(_F, _PSI, 2),
    f_space(_F, _PSI, 3), f_space(_F, _PSI, 4),
    e_space(_EXT, _PSI, 1), e_space(_EXT, _PSI, 2),
    matrix_space_f(_F, _PSI, 2), s_space(_EXT, _PSI, 1),
]


@settings(max_examples=40, deadline=None)
@given(which=st.integers(min_value=0, max_value=len(FOURIER_SPACES) - 1),
       seed=st.integers(min_value=0, max_value=2 ** 32),
       data=st.data())
def test_a_packet_is_constant_on_its_level_cosets(which, seed, data):
    # the fourier suite's packets and their transforms: moving one
    # coordinate by a multiple of p^level(t) leaves every value unchanged
    sp = FOURIER_SPACES[which]
    p = sp.F.p
    f = _random_packet(sp, random.Random(seed), p)
    assume(f.rows)
    coord = st.builds(lambda j, k: Fraction(j, p ** k),
                      st.integers(min_value=-p ** 3, max_value=p ** 3),
                      st.integers(min_value=0, max_value=2))
    for g in (f, f.fourier()):
        x = data.draw(st.lists(coord, min_size=sp.dim, max_size=sp.dim))
        value = g.evaluate(x)
        for t in range(sp.dim):
            u = data.draw(st.integers(min_value=-p ** 2, max_value=p ** 2))
            y = list(x)
            y[t] += u * Fraction(p) ** g.level(t)
            assert (g.evaluate(y) - value).is_zero(), (t, g.level(t))


def test_equal_packets_cancel_without_a_refinement(monkeypatch):
    # FFf and f(-x) have the same canonical rows, so their difference
    # merges to nothing and no refinement is built
    def refused(*args):
        raise AssertionError("a refinement was built")

    monkeypatch.setattr(WavePacket, "refined", refused)
    rng = random.Random(7)
    for _ in range(3):
        for sp in FOURIER_SPACES:
            f = _random_packet(sp, rng, sp.F.p)
            assert f.fourier().fourier().equals(f.reflect())


# Every loop that builds packet rows is charged against the run's coset
# limit before it starts, in time that does not grow with the refusal.


def test_a_far_refinement_is_refused_at_once():
    # refining p^0 O to p^(10^7) O needs 3^(10^7) offsets; the charge
    # caps the exponent instead of building that power
    F, psi = setup_field()
    sp = f_space(F, psi, 1)
    near, far = WavePacket.indicator(sp, 0), WavePacket.indicator(sp, 10 ** 7)
    start = time.perf_counter()
    with pytest.raises(ScaleExceeded, match="refinement offset budget"):
        near.equals(far)
    assert time.perf_counter() - start < 0.1


def test_far_rows_that_cancel_are_never_refined():
    # 1_O + 1_{p^(10^7) O}: the rows of the two orders cancel, and with
    # the far coefficient changed only that row is left, at its own
    # lattice; refining either packet to p^(10^7) would be refused
    F, psi = setup_field()
    sp = f_space(F, psi, 1)
    terms = [(1, (0,), (0,), (0,)), (1, (0,), (10 ** 7,), (0,))]
    f = WavePacket(sp, terms)
    start = time.perf_counter()
    assert f.equals(WavePacket(sp, terms[::-1]))
    assert not f.equals(WavePacket(sp, [terms[0], (2,) + terms[1][1:]]))
    assert time.perf_counter() - start < 0.1


def test_a_large_product_is_refused_before_any_pair(monkeypatch):
    # 2000 x 2000 row pairs exceed the default limit of 500000; with
    # different lattices a pair test reads the finer center modulo the
    # coarser lattice, so none may run
    F, psi = setup_field()
    sp = f_space(F, psi, 1)
    a = WavePacket(sp, [(1, (j,), (8,), (0,)) for j in range(2000)])
    b = WavePacket(sp, [(1, (2000 + j,), (9,), (0,)) for j in range(2000)])

    def tested(*args):
        raise AssertionError("a row pair was tested")

    monkeypatch.setattr(spaces, "_mod_lattice", tested)
    with pytest.raises(ScaleExceeded, match="wave packet product budget"):
        a * b


def test_packet_row_loops_obey_the_coset_limit():
    F, psi = setup_field()
    sp = f_space(F, psi, 1)
    terms = [(1, (j,), (2,), (0,)) for j in range(3)]
    f = WavePacket(sp, terms)
    with RunConfig({"budgets": {"max_cosets": 8}}).scope():
        with pytest.raises(ScaleExceeded, match="wave packet term budget"):
            WavePacket(sp, terms * 3)
        with pytest.raises(ScaleExceeded, match="wave packet product budget"):
            f * f
        with pytest.raises(ScaleExceeded, match="wave packet tensor budget"):
            tensor(f, f)
        with pytest.raises(ScaleExceeded, match="refinement offset budget"):
            f.refined((3,))
        with pytest.raises(ScaleExceeded, match="riemann_fourier cell budget"):
            riemann_fourier(f, (Fraction(1, 27),))
    # each answers at the limit
    with RunConfig({"budgets": {"max_cosets": 9}}).scope():
        assert WavePacket(sp, terms * 3).equals(f.scale(3))
        assert len((f * f).rows) == 3 and len(tensor(f, f).rows) == 9
        assert len(f.refined((3,)).rows) == 9
        riemann_fourier(f, (Fraction(1, 27),))
