"""The rank-2 cell kernel of orbital_rs against three oracles: the
Fraction enumeration, the integer enumeration of the whole box without
pruning, and the per-cell walk whose cells are counted outside it, which
checks the counts of both passes of the one walk, each at its own
granularity.  Also each cell value against f.evaluate, the Delta_+
window against the matrix route and the integer certificate against the
Fraction one, the residue classes the walk tests, a frozen value at the
local-constancy base point, and the cell budget refusal, and the
granularity that `WavePacket.level` reads off frequencies against the
coordinates h moves."""

import hashlib
import itertools
import json
import random
from fractions import Fraction
from math import lcm
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from padharm import cells, orbital
from padharm.cells import cell_counts, cell_value
from padharm.characters import AdditiveCharacter, eta_for_extension
from padharm.cli import main
from padharm.config import RunConfig
from padharm.cyclotomic import CyclotomicScalar
from padharm.errors import NotInDomain, NotRegularSemisimple, ScaleExceeded
from padharm.matrices import Delta_plus, FractionRing, delta_plus, section_sigma
from padharm.orbital import OrbitalResult, _orbital_rs_cells, orbital_rs
from padharm.padic import FieldContext, QuadExtContext, val_p
from padharm.qrational import QRational
from padharm.spaces import WavePacket, f_space, matrix_space_f

from oracles import (
    cell_counts_of,
    delta_plus_val_window_of,
    passing_cells,
    result_difference,
)

P = 3
F = FieldContext(P)
PSI = AdditiveCharacter(F, 0)
SPACE = matrix_space_f(F, PSI, 3)
ETA = {delta: eta_for_extension(QuadExtContext(F, delta)) for delta in (2, 3)}


# ---------------------------------------------------------------------------
# reference oracle: the enumeration in Fraction arithmetic


def _conjugate_3x3(h, hinv, X):
    """Coordinates of diag(h,1) X diag(h,1)^(-1) for 2x2 h and 3x3 X."""
    Xm = [[X[0], X[1], X[2]], [X[3], X[4], X[5]], [X[6], X[7], X[8]]]
    top = [[h[i][0] * Xm[0][j] + h[i][1] * Xm[1][j] for j in range(3)]
           for i in range(2)]
    rows = top + [Xm[2]]
    out = []
    for i in range(3):
        r = rows[i]
        out.extend(
            [
                r[0] * hinv[0][0] + r[1] * hinv[1][0],
                r[0] * hinv[0][1] + r[1] * hinv[1][1],
                r[2],
            ]
        )
    return tuple(out)


def _conjugate_by(h, X):
    dh = h[0][0] * h[1][1] - h[0][1] * h[1][0]
    inv = [[h[1][1] / dh, -h[0][1] / dh], [-h[1][0] / dh, h[0][0] / dh]]
    return _conjugate_3x3(h, inv, X)


def reference_cells(X, f, eta, lo, M, det_window, budget):
    """Each cell h of p^lo [0, p^(M - lo))^4 conjugates X in Fraction
    arithmetic and evaluates f there.  The representatives are built as
    j * Fraction(p) ** lo, because j * p ** lo is a float for lo < 0."""
    p = f.space.F.p
    q = Fraction(p)
    side = p ** (M - lo)
    if side ** 4 > budget:
        raise ScaleExceeded("rank-2 cell budget")
    vol = f_space(f.space.F, f.space.psi, 4).vol_lattice((M,) * 4)
    reps = [j * q ** lo for j in range(side)]
    pairs = {}
    for h11, h12, h21, h22 in itertools.product(reps, repeat=4):
        dh = h11 * h22 - h12 * h21
        if dh == 0:
            continue
        vd = val_p(dh, p)
        if vd not in det_window:
            continue
        Y = _conjugate_by([[h11, h12], [h21, h22]], X)
        val = f.evaluate(Y)
        if val.is_zero():
            continue
        c = val * eta(dh) * q ** (2 * vd)
        pairs[vd] = pairs.get(vd, CyclotomicScalar.zero()) + c
    out = []
    for vd, c in pairs.items():
        out.append((c * vol, QRational.monomial(1, vd)))
    return OrbitalResult(out, {"variable": "q^-s"})


def integer_cells(X, f, eta, lo, M, det_window, budget):
    """The integer kernel without pruning: every J of [0, p^(M - lo))^4
    runs the divisibility form of the coset tests, and a cell on which
    some term passes is valued by f.evaluate and eta at its Fraction
    point.  About 30x as fast as reference_cells at M = lo + 2."""
    p = f.space.F.p
    q = Fraction(p)
    side = p ** (M - lo)
    if side ** 4 > budget:
        raise ScaleExceeded("rank-2 cell budget")
    vol = f_space(f.space.F, f.space.psi, 4).vol_lattice((M,) * 4)
    L = abs(lo)
    D = lcm(*(x.denominator for x in X))
    Xi = [x.numerator * (D // x.denominator) for x in X]
    a00, a01, b0, a10, a11, b1, c0, c1, e = Xi
    pL = p ** L
    sb = p ** (lo + L)
    sc = p ** (L - lo)
    vD = val_p(D, p)
    tests = {}
    for w in det_window:
        vj = w - 2 * lo
        compiled = []
        for _, center, exps, _ in f.terms:
            checks = []
            for t in range(9):
                c = center[t]
                k = exps[t] + val_p(c.denominator, p) + vD + vj + L
                if k > 0:
                    checks.append((t, c.denominator, c.numerator * D * pL,
                                   p ** k))
            compiled.append(checks)
        tests[vj] = compiled
    pairs = {}
    for j11, j12, j21, j22 in itertools.product(range(side), repeat=4):
        dJ = j11 * j22 - j12 * j21
        if dJ == 0:
            continue
        vj = val_p(dJ, p)
        compiled = tests.get(vj)
        if compiled is None:
            continue
        r00 = j11 * a00 + j12 * a10
        r01 = j11 * a01 + j12 * a11
        r10 = j21 * a00 + j22 * a10
        r11 = j21 * a01 + j22 * a11
        N = (
            pL * (r00 * j22 - r01 * j21),
            pL * (r01 * j11 - r00 * j12),
            sb * dJ * (j11 * b0 + j12 * b1),
            pL * (r10 * j22 - r11 * j21),
            pL * (r11 * j11 - r10 * j12),
            sb * dJ * (j21 * b0 + j22 * b1),
            sc * (c0 * j22 - c1 * j21),
            sc * (c1 * j11 - c0 * j12),
            pL * dJ * e,
        )
        if not any(all((N[t] * cd - cnD * dJ) % m == 0
                       for t, cd, cnD, m in checks) for checks in compiled):
            continue
        Den = D * dJ * pL
        val = f.evaluate(tuple(Fraction(n, Den) for n in N))
        if val.is_zero():
            continue
        vd = 2 * lo + vj
        c = val * eta(dJ * q ** (2 * lo)) * q ** (2 * vd)
        pairs[vd] = pairs.get(vd, CyclotomicScalar.zero()) + c
    out = []
    for vd, c in pairs.items():
        out.append((c * vol, QRational.monomial(1, vd)))
    return OrbitalResult(out, {"variable": "q^-s"})


def over_one_denominator(X):
    """(Xi, D): X as int numerators over its least common denominator."""
    D = lcm(*(x.denominator for x in X))
    return [x.numerator * (D // x.denominator) for x in X], D


def assert_same_counts(X, f, lo, M, det_window):
    # the one walk's counts of the M and M + 1 passes, each against those
    # of the per-cell oracle's cells at its own granularity
    got = cell_counts(*over_one_denominator(X), f, lo, M, det_window)
    assert len(got) == 2
    for counts, g in zip(got, (M, M + 1)):
        assert counts == cell_counts_of(X, f, lo, g, det_window)
    return got


def assert_same_cells(X, f, eta, lo, M, det_window, oracle=reference_cells):
    counts, _ = assert_same_counts(X, f, lo, M, det_window)
    got = _orbital_rs_cells(f, eta, lo, M, counts)
    want = oracle(X, f, eta, lo, M, det_window, 10 ** 6)
    assert repr(got.pairs) == repr(want.pairs)
    assert got.metadata == want.metadata
    return want


# ---------------------------------------------------------------------------
# fixed cases


def sigma_coords(a, b):
    S = section_sigma(FractionRing(), a, b)
    return tuple(Fraction(e) for row in S for e in row)


BASE = sigma_coords((1, 2), (1, 1, 2))
# a point whose coordinates have a common denominator D = 3
BASE_D3 = sigma_coords((Fraction(1, 3), 2), (1, Fraction(-2, 3), 2))
# frequencies in p^-1 Z on two coordinates: a phase across each coset
TWIST = (Fraction(1, 3), 0, 0, 0, 0, Fraction(-2, 3), 0, 0, 0)
WINDOW = set(range(-4, 7))


def packet(center, exps, twisted):
    freq = TWIST if twisted else None
    return WavePacket.indicator(SPACE, exps, center=center, freq=freq)


@pytest.mark.parametrize("delta", [2, 3])
@pytest.mark.parametrize("twisted", [False, True])
@pytest.mark.parametrize("center", [BASE, BASE_D3], ids=["D1", "D3"])
def test_kernel_matches_reference_at_base_granularity(delta, twisted, center):
    # lo = 0, M = 1: the answer pass of the local-constancy suite
    want = assert_same_cells(center, packet(center, 1, twisted),
                             ETA[delta], 0, 1, {0})
    assert want.pairs


@pytest.mark.parametrize("delta", [2, 3])
@pytest.mark.parametrize("twisted", [False, True])
def test_kernel_matches_reference_in_certificate_pass(delta, twisted):
    # lo = 0, M = 2: the 6561-cell refinement pass
    want = assert_same_cells(BASE, packet(BASE, 1, twisted),
                             ETA[delta], 0, 2, {0})
    assert want.pairs


@pytest.mark.parametrize("lo", [-1, 0, 1])
@pytest.mark.parametrize("delta", [2, 3])
@pytest.mark.parametrize("twisted", [False, True])
@pytest.mark.parametrize("center", [BASE, BASE_D3], ids=["D1", "D3"])
def test_kernel_matches_reference_across_box_floors(lo, delta, twisted,
                                                    center):
    # wide supports, so that the p^lo scaling of h decides which cells count
    for exps in (-2, 0):
        assert_same_cells(center, packet(center, exps, twisted),
                          ETA[delta], lo, lo + 1, WINDOW)


def test_delta_plus_certificate_reads_only_a_and_u():
    # the README rank-2 packet with its last row widened to O: Delta_+ is
    # a cubic in A and u alone, so the widened v and w do not enter its
    # certificate, while the box floor still reads all nine coordinates
    f = WavePacket.indicator(SPACE, (1,) * 6 + (0,) * 3, center=BASE,
                             freq=TWIST)
    got = orbital_rs(BASE, f, ETA[2])
    assert (got.metadata["box_floor"], got.metadata["granularity"],
            got.metadata["det_window"]) == (0, 1, [0])
    want = assert_same_cells(BASE, f, ETA[2], 0, 1, {0})
    assert repr(got.pairs) == repr(want.pairs)
    assert got.pairs == ((CyclotomicScalar.root_of_unity(Fraction(2, 3))
                          * CyclotomicScalar.from_rational(Fraction(1, 81)),
                          QRational.monomial(1, 0)),)
    # the certificate pass agrees with the oracle too
    assert_same_cells(BASE, f, ETA[2], 0, 2, {0})


@pytest.mark.parametrize("lo", [-1, 0, 1])
def test_kernel_matches_reference_nonzero_at_every_box_floor(lo):
    # inert eta is 1 on units, so the wide-support sums do not cancel; the
    # one-value window {2 lo} keeps only the cells with a unit det(J)
    for window in ({2 * lo}, WINDOW):
        want = assert_same_cells(BASE_D3, packet(BASE_D3, -2, False),
                                 ETA[2], lo, lo + 1, window)
        assert want.pairs


MULTI = WavePacket(SPACE, [
    (1, BASE, (1,) * 9, (0,) * 9),
    (Fraction(-2, 3), BASE_D3, (0,) * 9, TWIST),
    (5, (0,) * 9, (-1,) * 9, (0,) * 9),
])
# 1 + e(1/2) on the inner coset: zero in Q(zeta) but not as a dict, so a
# cell there must be dropped, not added
CANCELLING = WavePacket(SPACE, [
    (1, BASE_D3, (0,) * 9, (0,) * 9),
    (CyclotomicScalar.root_of_unity(Fraction(1, 2)), BASE_D3, (1,) * 9,
     (0,) * 9),
])


def test_kernel_matches_reference_on_a_multi_term_packet():
    f = MULTI
    for lo in (-1, 0, 1):
        assert_same_cells(BASE_D3, f, ETA[2], lo, lo + 1, WINDOW)
        assert_same_cells(BASE_D3, f, ETA[3], lo, lo + 1, WINDOW)


small_rationals = st.builds(
    lambda n, k: Fraction(n, P ** k),
    st.integers(-9, 9), st.integers(0, 1))


@settings(max_examples=25, deadline=None)
@given(
    X=st.tuples(*[small_rationals] * 9),
    center=st.tuples(*[small_rationals] * 9),
    exps=st.tuples(*[st.integers(-2, 1)] * 9),
    freq=st.tuples(*[st.sampled_from((0, Fraction(1, 3), Fraction(-1, 3)))] * 9),
    lo=st.integers(-1, 1),
    window=st.sets(st.integers(-2, 4), min_size=1, max_size=3),
    delta=st.sampled_from((2, 3)),
)
def test_kernel_matches_reference_on_random_packets(X, center, exps, freq,
                                                    lo, window, delta):
    f = WavePacket(SPACE, [(1, center, exps, freq)])
    assert_same_cells(X, f, ETA[delta], lo, lo + 1, window)


# ---------------------------------------------------------------------------
# certificate granularity: at M = lo + 2 the walk prunes residues mod p


@pytest.mark.parametrize("lo, f, window", [
    (-1, MULTI, WINDOW),
    (0, packet(BASE_D3, -2, False), {0}),
    (1, packet(BASE_D3, -2, False), {2}),
], ids=["lo-1-multi-wide", "lo0-D3-unit", "lo1-D3-unit"])
def test_kernel_matches_reference_at_certificate_granularity(lo, f, window):
    want = assert_same_cells(BASE_D3, f, ETA[2], lo, lo + 2, window)
    assert want.pairs


def mixed(space):
    return WavePacket(space, [
        (1, BASE_D3, (1,) * 9, (0,) * 9),
        (Fraction(-2, 3), BASE_D3, (0,) * 9, TWIST),
        (5, BASE_D3, (0, 1) * 4 + (0,), (0,) * 9),
    ])


def matrix_space(conductor):
    return matrix_space_f(F, AdditiveCharacter(F, conductor), 3)


# supports narrow enough that the integer oracle stays fast; at lo = 1 no
# cell passes, which checks that the walk prunes every residue it may
CERTIFICATE_PACKETS = {
    "D3-twisted": packet(BASE_D3, 1, True),
    "mixed": mixed(SPACE),
    # psi of conductor -1 is nontrivial on O: more phases survive
    "mixed-conductor-minus-1": mixed(matrix_space(-1)),
    "cancelling": CANCELLING,
}


@pytest.mark.parametrize("lo", [-1, 0, 1])
@pytest.mark.parametrize("name", sorted(CERTIFICATE_PACKETS))
def test_kernel_matches_integer_oracle_at_certificate_granularity(lo, name):
    # the window {2 lo + 1} holds only v(det J) = 1, which a residue mod p
    # with p | det r may still reach
    f = CERTIFICATE_PACKETS[name]
    for delta, window in ((2, {2 * lo}), (2, {2 * lo + 1}), (3, WINDOW)):
        assert_same_cells(BASE_D3, f, ETA[delta], lo, lo + 2, window,
                          oracle=integer_cells)


def _h(J, lo):
    q = Fraction(P) ** lo
    return [[J[0] * q, J[1] * q], [J[2] * q, J[3] * q]]


@st.composite
def certificate_cases(draw):
    """A point X and a packet whose terms sit at conjugates of X by cells
    of the box, so that some cells pass."""
    lo = draw(st.integers(-1, 1))
    space = matrix_space(draw(st.integers(-1, 1)))
    X = draw(st.tuples(*[small_rationals] * 9))
    terms = []
    for _ in range(draw(st.integers(1, 2))):
        J = draw(st.tuples(*[st.integers(0, P ** 2 - 1)] * 4))
        h = _h(J, lo)
        singular = h[0][0] * h[1][1] == h[0][1] * h[1][0]
        center = X if singular else _conjugate_by(h, X)
        exps = draw(st.tuples(*[st.integers(0, 2)] * 9))
        freq = draw(st.tuples(*[st.sampled_from(
            (0, 0, Fraction(1, 3), Fraction(-1, 3), Fraction(1, 9)))] * 9))
        coeff = draw(st.sampled_from((1, -1, Fraction(2, 3), CyclotomicScalar(
            {Fraction(1, 2): 1}))))
        terms.append((coeff, center, exps, freq))
    window = draw(st.sets(st.integers(2 * lo, 2 * lo + 3), min_size=1,
                          max_size=3))
    delta = draw(st.sampled_from((2, 3)))
    return X, WavePacket(space, terms), lo, window, delta


@settings(max_examples=12, deadline=None)
@given(case=certificate_cases())
def test_kernel_matches_integer_oracle_on_random_packets(case):
    X, f, lo, window, delta = case
    assert_same_cells(X, f, ETA[delta], lo, lo + 2, window,
                      oracle=integer_cells)


MIXED_CANCELLING = WavePacket(SPACE, CERTIFICATE_PACKETS["mixed"].terms
                              + CANCELLING.terms)


@pytest.mark.parametrize("lo, M, f", [
    (-1, 1, MIXED_CANCELLING),
    (0, 2, MIXED_CANCELLING),
    (0, 2, CERTIFICATE_PACKETS["mixed-conductor-minus-1"]),
    # a wide support, at M = lo + 1 to keep the cell count small
    (1, 2, packet(BASE_D3, -2, True)),
])
def test_every_cell_value_is_f_evaluate_there(lo, M, f):
    # the integer model's value of each passing cell, psi's phase n / p^k
    # from S / (G Den) as an int pair, against f.evaluate at the cell's
    # Fraction point, on the per-cell oracle's cells
    assert_same_counts(BASE_D3, f, lo, M, WINDOW)
    cells = 0
    for J, dJ, vj, hits in passing_cells(BASE_D3, f, lo, M, WINDOW):
        assert dJ == J[0] * J[3] - J[1] * J[2] and val_p(dJ, P) == vj
        for _, (n, k) in hits:
            assert type(n) is int and type(k) is int
            assert k >= 0 and 0 <= n < P ** k
        want = f.evaluate(_conjugate_by(_h(J, lo), BASE_D3))
        got = cell_value(f, hits)
        assert got == want and repr(got) == repr(want)
        cells += 1
    assert cells > 0


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("d", [-1, 0, 1])
def test_cell_volume_is_the_four_dim_lattice_volume(p, d):
    F = FieldContext(p)
    space = f_space(F, AdditiveCharacter(F, d), 4)
    for M in range(-3, 7):
        got = orbital._cell_volume(p, d, M)
        want = space.vol_lattice((M,) * 4)
        assert got == want and repr(got) == repr(want)


# ---------------------------------------------------------------------------
# the Delta_+ window


@settings(max_examples=50, deadline=None)
@given(X=st.tuples(*[small_rationals] * 9))
def test_closed_form_delta_plus_is_the_matrix_route(X):
    # on the int numerators Xi = D X: (Au)_i carries D^2, u_i carries D
    # and Delta_+ carries D^3
    R = FractionRing()
    Xm = [list(X[0:3]), list(X[3:6]), list(X[6:9])]
    Xi, D = over_one_denominator(X)
    entries, dX = orbital._delta_plus_2x2(Xi)
    assert all(type(e) is int for e in entries) and type(dX) is int
    scaled = tuple(Fraction(e, D ** (2 - i % 2)) for i, e in enumerate(entries))
    assert scaled == tuple(e for row in delta_plus(R, Xm) for e in row)
    assert Fraction(dX, D ** 3) == Delta_plus(R, Xm)


def delta_plus_window(f, X):
    return orbital._delta_plus_val_window(f, *over_one_denominator(X), P)


def test_box_floor_is_the_least_row_floor():
    # rows of floors 0 and -1: BASE has a unit entry, and its conjugate by
    # diag(1/p, 1) has x12 = 1/p; each row's Delta_+ is certified
    twisted = _conjugate_by([[Fraction(1, P), 0], [0, 1]], BASE)
    rows = [(1, BASE, (1,) * 9, (0,) * 9), (1, twisted, (2,) * 9, (0,) * 9)]
    floors = [delta_plus_window(WavePacket(SPACE, [row]), BASE)[3]
              for row in rows]
    assert floors == [0, -1]
    got = delta_plus_window(WavePacket(SPACE, rows), BASE)
    assert got == ({0, -1}, 0, 0, -1)


def certificate_outcome(window, *args):
    """The certificate's return value, or the class and message of its
    refusal."""
    try:
        return window(*args)
    except (NotRegularSemisimple, NotInDomain) as exc:
        return type(exc), str(exc)


def certificate_rationals(low):
    # n / d p^k with d prime to p or not, so that D is a unit, a power of
    # p or neither; n = 0 now and then, so that Delta_+(X) or a center's
    # Delta_+ may vanish
    return st.builds(lambda n, d, k: Fraction(n, d) * Fraction(P) ** k,
                     st.integers(-9, 9), st.sampled_from((1, 2)),
                     st.integers(low, 2))


# integral points and points with p^-2 in them; a row's exponents one
# value, as at the suites' packets, or one per coordinate.  About one case
# in ten is certified; the rest meet one of the two refusals
certificate_points = st.one_of(st.tuples(*[certificate_rationals(0)] * 9),
                               st.tuples(*[certificate_rationals(-2)] * 9))
certificate_exps = st.one_of(st.integers(-1, 6).map(lambda a: (a,) * 9),
                             st.tuples(*[st.integers(0, 5)] * 9))


@settings(max_examples=300, deadline=None)
@given(X=certificate_points,
       rows=st.lists(st.tuples(certificate_points, certificate_exps),
                     min_size=1, max_size=3))
def test_integer_certificate_is_the_fraction_one(X, rows):
    # the same windows, v(Delta_+(X)), lo_adj and floor, or the same
    # refusal, from ints over one denominator as from Fractions
    f = WavePacket(SPACE, [(1, C, exps, (0,) * 9) for C, exps in rows])
    if not f.rows:
        return
    got = certificate_outcome(delta_plus_window, f, X)
    assert got == certificate_outcome(delta_plus_val_window_of, f, X, P)


# OrbitalResult equality against the difference that `result_difference`
# builds and `__eq__` does not: a few rational functions, and values with
# several stored forms each
# (1 = 2 + e(1/2) = -e(1/3) - e(2/3), i = e(1/4) = -e(3/4),
# sqrt(3) = e(1/12) - e(5/12) = e(11/12) - e(7/12), 0 = 1 + e(1/2))
RESULT_QRS = [QRational.monomial(1, k) for k in (-1, 0, 1, 2)] + [
    QRational.monomial(1, 1) / (QRational.const(1) - QRational.monomial(
        Fraction(1, 3), 2))]
VALUE_FORMS = [
    [CyclotomicScalar.one(), CyclotomicScalar({0: 2, Fraction(1, 2): 1}),
     CyclotomicScalar({Fraction(1, 3): -1, Fraction(2, 3): -1})],
    [CyclotomicScalar.root_of_unity(Fraction(1, 4)),
     CyclotomicScalar({Fraction(3, 4): -1})],
    [CyclotomicScalar({Fraction(1, 12): 1, Fraction(5, 12): -1}),
     CyclotomicScalar({Fraction(11, 12): 1, Fraction(7, 12): -1})],
    [CyclotomicScalar.from_rational(Fraction(-2, 3))],
    [CyclotomicScalar.zero(), CyclotomicScalar({0: 1, Fraction(1, 2): 1})],
]
result_terms = st.lists(st.tuples(
    st.integers(0, len(VALUE_FORMS) - 1), st.integers(0, 2),
    st.integers(0, len(RESULT_QRS) - 1)), max_size=4)


def _result(terms, qrs=RESULT_QRS):
    return OrbitalResult([(VALUE_FORMS[v][form % len(VALUE_FORMS[v])],
                           qrs[i % len(qrs)]) for v, form, i in terms])


@settings(max_examples=200, deadline=None)
@given(a=result_terms, b=result_terms,
       case=st.sampled_from(["independent", "reformed", "perturbed",
                             "disjoint"]),
       shift=st.integers(1, len(VALUE_FORMS) - 1))
def test_result_equality_is_a_zero_difference(a, b, case, shift):
    if case == "reformed":
        # the same value on the same function, in other stored forms
        b = [(v, form + 1, i) for v, form, i in a]
    elif case == "perturbed":
        # the same functions, the first coefficient another value
        b = [((v + shift) % len(VALUE_FORMS) if j == 0 else v, form, i)
             for j, (v, form, i) in enumerate(a)]
    x = _result(a, RESULT_QRS[:2] if case == "disjoint" else RESULT_QRS)
    y = _result(b, RESULT_QRS[2:] if case == "disjoint" else RESULT_QRS)
    want = not result_difference(x, y).pairs
    assert (x == y) is want and (y == x) is want
    if case == "reformed":
        assert want


# ---------------------------------------------------------------------------
# orbital_rs through the kernel


def test_frozen_value_at_the_local_constancy_base_point():
    f = packet(BASE, 1, False)
    res = orbital_rs(BASE, f, ETA[2])
    assert res == OrbitalResult([(Fraction(1, 81), QRational.const(1))])
    assert res.value0().as_rational() == Fraction(1, 81)
    assert res.metadata == {"variable": "q^-s", "n": 2, "box_floor": 0,
                            "granularity": 1, "det_window": [0]}


# a ramified delta at p = 3, and an inert and a ramified one at p = 5
EXTENSIONS = [(3, 3), (5, 2), (5, 5)]


@pytest.mark.parametrize("p, delta", EXTENSIONS)
@pytest.mark.parametrize("twisted", [False, True])
def test_local_constancy_at_other_extensions(p, delta, twisted):
    # the local-constancy suite's packet and moves by p^3 in the
    # invariants, with the answer pass checked against the Fraction
    # enumeration of its box
    F = FieldContext(p)
    psi = AdditiveCharacter(F, 0)
    eta = eta_for_extension(QuadExtContext(F, delta))
    freq = ((Fraction(1, p), 0, 0, 0, 0, Fraction(-2, p), 0, 0, 0)
            if twisted else None)
    f = WavePacket.indicator(matrix_space_f(F, psi, 3), 1, center=BASE,
                             freq=freq)
    base = orbital_rs(BASE, f, eta)
    assert base.pairs
    assert base.metadata["granularity"] == 1
    # the walk's two passes, at granularities 1 and 2
    assert_same_counts(BASE, f, 0, 1, set(base.metadata["det_window"]))
    want = reference_cells(BASE, f, eta, 0, 1, set(base.metadata["det_window"]),
                           10 ** 6)
    assert repr(base.pairs) == repr(want.pairs)
    rng = random.Random(f"{p}:{delta}")
    for _ in range(2):
        d = [rng.randrange(-1, 2) * p ** 3 for _ in range(5)]
        X = sigma_coords((1 + d[0], 2 + d[1]), (1 + d[2], 1 + d[3], 2 + d[4]))
        assert orbital_rs(X, f, eta) == base


def test_certificate_pass_refused_before_any_cell(monkeypatch):
    calls = []

    def counting_cells(*args):
        calls.append(args)
        raise AssertionError("no cell pass may run")

    monkeypatch.setattr(orbital, "cell_counts", counting_cells)
    monkeypatch.setattr(orbital, "_orbital_rs_cells", counting_cells)
    f = WavePacket.indicator(SPACE, 2, center=BASE)
    # M = 2: 3^8 = 6561 cells in the answer pass, 3^12 = 531441 in the
    # certificate pass, over the default budget of 500000
    with pytest.raises(ScaleExceeded, match="rank-2 cell budget"):
        orbital_rs(BASE, f, ETA[2])
    assert calls == []


def test_cli_refuses_lattice_exponent_two_with_exit_3(tmp_path, monkeypatch):
    monkeypatch.setattr(orbital, "cell_counts",
                        lambda *args: pytest.fail("the cell walk ran"))
    X = [str(x) for x in BASE]
    payload = {"X": X, "f": {"space": {"kind": "matrix-f", "k": 3},
                             "terms": [{"coeff": 1, "exps": [2] * 9,
                                        "center": X}]}}
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload))
    assert main(["--payload", str(path), "--out", str(tmp_path / "out.json"),
                 "oi-rs"]) == 3


def test_the_readme_point_tests_162_residue_classes(monkeypatch):
    # the README rank-2 packet at M = 1: one walk tests the 81 level-1
    # classes once, for the M-pass cells and the M + 1 drop rule, and the
    # 81 classes below the one that survives; a walk per pass tested the
    # level-1 classes twice, 243 in all
    tested = []

    def product(*args, **kwargs):
        for residue in itertools.product(*args, **kwargs):
            tested.append(residue)
            yield residue

    monkeypatch.setattr(cells, "itertools", SimpleNamespace(product=product))
    got = orbital_rs(BASE, packet(BASE, 1, True), ETA[2])
    assert got.metadata["granularity"] == 1
    assert len(tested) == 162


# cli-queries' planned refusal: rank-2 oi-rs with exps [2] * 9 at a
# sigma(a, b) point under the default config; the charge of the M + 1
# pass refuses it whatever the cell walk does
@pytest.mark.parametrize("a, b", [((0, 0), (0, 0, 0)), ((1, 2), (1, 1, 2)),
                                  ((-4, 4), (4, -4, 3)), ((3, -3), (-3, 0, 1))])
def test_cli_queries_over_budget_request_exits_3(a, b, tmp_path, capsys):
    X = [str(x) for x in sigma_coords(a, b)]
    payload = {"X": X, "f": {"space": {"kind": "matrix-f", "k": 3},
                             "terms": [{"coeff": 1, "exps": [2] * 9,
                                        "center": X}]}}
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload))
    out = tmp_path / "out.json"
    assert main(["--payload", str(path), "--out", str(out), "oi-rs"]) == 3
    assert "rank-2 cell budget" in json.loads(out.read_text())["error"][
        "message"]


# ---------------------------------------------------------------------------
# the level reads the frequencies against the coordinates h moves

# the README's rank-2 point and packet with exps 1, a frequency 1/9 stored
# at one position of `freq`: position 0 oscillates against x11 and 5
# against x32, which h moves, and 8 against x33, which diag(h, 1) fixes
README_X = (1, 1, 0, 2, 0, 1, 2, 1, 1)
RAISED = {"budgets": {"max_cosets": 600000}}  # above 3^12


def readme_call(position, tmp_path, config=None):
    """(exit code, output document) of `oi-rs` on the README packet with
    frequency 1/9 at `position`."""
    freq = [0] * 9
    freq[position] = "1/9"
    payload = {"X": [list(README_X[i:i + 3]) for i in (0, 3, 6)],
               "f": {"space": {"kind": "matrix-f", "k": 3},
                     "terms": [{"coeff": 1, "exps": [1] * 9,
                                "center": list(README_X), "freq": freq}]}}
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload))
    out = tmp_path / "out.json"
    argv = ["--payload", str(path), "--out", str(out)]
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        argv = ["--config", str(tmp_path / "config.json")] + argv
    return main(argv + ["oi-rs"]), out.read_text()


@pytest.mark.parametrize("position", [0, 5])
def test_a_frequency_against_a_moved_coordinate_refines_the_cells(
        position, tmp_path):
    # level 2 at the coordinate: M = 2 charges 3^12 cells for its M + 1
    # pass, over the default budget; the refinement check, which once
    # failed at M = 1, is never reached
    code, text = readme_call(position, tmp_path)
    assert code == 3
    assert json.loads(text)["error"]["message"] == (
        "rank-2 cell budget exceeds budgets/max_cosets = 500000")
    code, text = readme_call(position, tmp_path, RAISED)
    assert code == 0
    assert json.loads(text)["result"]["metadata"]["granularity"] == "2"
    X = tuple(map(Fraction, README_X))
    freq = [0] * 9
    freq[position] = Fraction(1, 9)
    f = WavePacket.indicator(SPACE, 1, center=X, freq=freq)
    with RunConfig(RAISED).scope():
        got = orbital_rs(X, f, ETA[2])
    assert got.metadata["granularity"] == 2
    assert got == reference_cells(X, f, ETA[2], 0, 2, {0}, 10 ** 6)
    # the old granularity 1 is too coarse: its sum differs
    assert got != reference_cells(X, f, ETA[2], 0, 1, {0}, 10 ** 6)


def test_a_frequency_against_x33_keeps_its_bytes(tmp_path):
    # the bytes printed at granularity 1 before the level read the
    # frequencies: a frequency against x33 does not move them
    code, text = readme_call(8, tmp_path)
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "a9a5666c60f359642dd745497903ed0020fcb839cbab31b900c433636b9777fa")


def test_an_exponent_at_x33_does_not_refine_the_cells():
    # the largest exponent sits at x33, which no cell moves: granularity 1,
    # where the largest exponent over all coordinates would take 2
    X = tuple(map(Fraction, README_X))
    f = WavePacket.indicator(SPACE, (1,) * 8 + (2,), center=X)
    got = orbital_rs(X, f, ETA[2])
    assert got.metadata["granularity"] == 1
    assert got.pairs
    assert got == reference_cells(X, f, ETA[2], 0, 2, {0}, 10 ** 6)
