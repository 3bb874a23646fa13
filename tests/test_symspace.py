"""Symmetric-space geometry: tau transport, Hermitian forms, transfer
factors, and rank-1 orbit matching."""

import random
from fractions import Fraction

import pytest

from padharm.padic import FieldContext, QuadExtContext, val_p
from padharm.characters import eta_for_extension, eta_prime_default
from padharm.errors import NotInDomain, NotRegularSemisimple
from padharm.matrices import Delta, FractionRing, mat, mat_mul, section_sigma
from padharm.symspace import (
    HermitianForm,
    in_s_lie,
    match_side,
    separating_forms,
    tau_scale,
    tau_unscale,
    transfer_factor_group,
    transfer_factor_lie,
    xi_minus_s,
)


def make_ext(delta=2, p=3):
    return QuadExtContext(FieldContext(p), delta)


def test_tau_scale_round_trip():
    ext = make_ext()
    Xf = [[Fraction(1), Fraction(2, 3)], [Fraction(-1), Fraction(0)]]
    X = tau_scale(ext, Xf)
    assert in_s_lie(X)
    back = tau_unscale(ext, X)
    for i in range(2):
        for j in range(2):
            assert back[i][j] == Xf[i][j]


def test_tau_unscale_rejects_non_s():
    ext = make_ext()
    one = ext.one()
    with pytest.raises(NotInDomain):
        tau_unscale(ext, mat([[one]]))


def test_xi_elements_lie_in_s():
    ext = make_ext()
    assert in_s_lie(xi_minus_s(ext, 3))


def test_hermitian_form_basics():
    ext = make_ext()
    form = HermitianForm(ext, (1, 3))
    assert form.disc() == Fraction(3)
    with pytest.raises(NotInDomain):
        HermitianForm(ext, (1, 0))


def test_transfer_factor_lie_rejects_singular():
    ext = make_ext()
    eta = eta_for_extension(ext)
    eta_prime = eta_prime_default(ext, eta)
    Z = tau_scale(ext, [[Fraction(0)] * 2 for _ in range(2)])
    with pytest.raises(NotRegularSemisimple):
        transfer_factor_lie(ext, Z, eta_prime, sign="minus")
    # the shifted nilpotent has nonvanishing minus-discriminant
    val = transfer_factor_lie(ext, xi_minus_s(ext, 2), eta_prime, sign="minus")
    assert (val * val.conj()).as_rational() == 1


def test_match_side_dichotomy():
    ext = make_ext()
    eta = eta_for_extension(ext)
    forms = [HermitianForm(ext, (1, 1)), HermitianForm(ext, (1, 3))]
    Rf = FractionRing()
    sides = set()
    for b1 in (Fraction(1), Fraction(3), Fraction(-1), Fraction(9)):
        Xf = section_sigma(Rf, (Fraction(1),), (Fraction(2), b1))
        side = match_side(ext, tau_scale(ext, Xf), eta, forms)
        assert side in (0, 1)
        sides.add(side)
    # the grid hits both norm classes
    assert sides == {0, 1}


def test_match_side_rejects_non_regular():
    ext = make_ext()
    eta = eta_for_extension(ext)
    forms = [HermitianForm(ext, (1, 1)), HermitianForm(ext, (1, 3))]
    Z = tau_scale(ext, [[Fraction(0)] * 2 for _ in range(2)])
    with pytest.raises(NotRegularSemisimple):
        match_side(ext, Z, eta, forms)


def equivariance_samples(p, delta, count):
    """Samples drawn as the suite and the benchmark draw them (entries
    a + b tau with a, b in -3..3): each one ends in an answer or in
    NotRegularSemisimple/NotInDomain, never in a precision refusal, and
    every answer satisfies Omega(h1 gamma h2) = eta(det h2) Omega(gamma).
    Returns the number of answers."""
    ext = make_ext(delta=delta, p=p)
    eta = eta_for_extension(ext)
    eta_prime = eta_prime_default(ext, eta)
    rng = random.Random(0)

    def rnd():
        return ext.scalar(rng.randrange(-3, 4), rng.randrange(-3, 4))

    samples = answered = 0
    while samples < count:
        gamma1 = mat([[rnd()]])
        gamma2 = mat([[rnd() for _ in range(2)] for _ in range(2)])
        t = ext.scalar(rng.choice((1, 2, 3, p, 2 * p)))
        g1 = ext.scalar(rng.choice((1, 2, p)))
        g2 = mat([[Fraction(rng.randrange(-2, 3)) for _ in range(2)]
                  for _ in range(2)])
        dg2 = g2[0][0] * g2[1][1] - g2[0][1] * g2[1][0]
        if dg2 == 0:
            continue
        samples += 1
        emb = mat([[t, ext.zero()], [ext.zero(), ext.one()]])
        g2e = mat([[ext.scalar(x) for x in row] for row in g2])
        gamma2b = mat_mul(mat_mul(emb, gamma2), g2e)
        try:
            base = transfer_factor_group(ext, gamma1, gamma2, eta_prime)
        except (NotRegularSemisimple, NotInDomain):
            continue
        moved = transfer_factor_group(ext, mat([[t * gamma1[0][0] * g1]]),
                                      gamma2b, eta_prime)
        assert (moved - base * eta(dg2)).is_zero()
        answered += 1
    return answered


def test_transfer_equivariance_on_2000_exact_samples():
    assert equivariance_samples(3, 2, 2000) == 1719


# a ramified delta at p = 3, and an inert and a ramified one at p = 5
EXTENSIONS = [(3, 3), (5, 2), (5, 5)]


@pytest.mark.parametrize("p, delta", EXTENSIONS)
def test_transfer_equivariance_at_other_extensions(p, delta):
    assert equivariance_samples(p, delta, 300) > 200


def hilbert_symbol(a, b, p):
    """(a, b)_p for nonzero rationals and odd p, by the closed formula
    (-1)^(alpha beta (p - 1)/2) (u/p)^beta (w/p)^alpha for a = p^alpha u,
    b = p^beta w: 1 exactly when a is a norm from F(sqrt b)."""
    def split(x):
        v = val_p(x, p)
        u = Fraction(x) / Fraction(p) ** v
        return v, u.numerator * pow(u.denominator, -1, p) % p

    def legendre(u):
        return 1 if pow(u, (p - 1) // 2, p) == 1 else -1

    (alpha, u), (beta, w) = split(a), split(b)
    sign = -1 if alpha * beta * (p - 1) // 2 % 2 else 1
    return sign * legendre(u) ** (beta % 2) * legendre(w) ** (alpha % 2)


@pytest.mark.parametrize("p, delta", [(3, 2)] + EXTENSIONS)
def test_matching_dichotomy_against_the_hilbert_symbol(p, delta):
    # the suite's grid of invariant classes (a; b0, b1): exactly one form
    # matches, the side is stable under conjugation by diag(2, 1), and it
    # is the form whose discriminant has the Hilbert symbol of Delta
    ext = make_ext(delta=delta, p=p)
    eta = eta_for_extension(ext)
    forms = separating_forms(ext, eta)
    Rf = FractionRing()
    grid = [Fraction(u) * Fraction(p) ** v for u in (1, 2) for v in (0, 1)]
    sides = []
    for a in [Fraction(0)] + grid:
        for b0 in [Fraction(0)] + grid:
            for b1 in grid + [-g for g in grid]:
                Xf = section_sigma(Rf, (a,), (b0, b1))
                try:
                    side = match_side(ext, tau_scale(ext, Xf), eta, forms)
                except NotRegularSemisimple:
                    continue
                Xc = mat([[Xf[0][0], Xf[0][1] * 2], [Xf[1][0] / 2, Xf[1][1]]])
                assert match_side(ext, tau_scale(ext, Xc), eta, forms) == side
                assert (hilbert_symbol(Delta(Rf, Xf), delta, p)
                        == hilbert_symbol(forms[side].disc(), delta, p))
                sides.append(side)
    assert set(sides) == {0, 1}


def test_transfer_factor_group_needs_sizes_n_and_n_plus_one():
    ext = make_ext()
    eta_prime = eta_prime_default(ext)
    one, two = ext.one(), ext.scalar(2)
    g2 = mat([[one, two], [two, one]])
    for gamma1, gamma2 in ((g2, mat([[two]])), (g2, g2),
                           (mat([[two]]), mat([[one]]))):
        with pytest.raises(NotInDomain):
            transfer_factor_group(ext, gamma1, gamma2, eta_prime)
