"""The rank-1 shell sum and the integrals built on it.

CyclotomicScalar has no unique normal form, so the reprs below (which the
CLI prints) pin the representation of each value as well as the value.
They were frozen from the per-caller loops that shell_sum replaced, and
each caller keeps its own unit-coset level lam.
"""

from fractions import Fraction

import pytest

from padharm.characters import AdditiveCharacter, eta_for_extension, shell_sum
from padharm.cyclotomic import CyclotomicScalar
from padharm.dagger import compactness_W_direct, make_dagger_scalar
from padharm.errors import NotInDomain
from padharm.orbital import orbital_rs_n1, spherical_rhs
from padharm.padic import FieldContext, QuadExtContext
from padharm.spaces import WavePacket, f_space, matrix_space_f

from oracles import dagger_mu_closed_form


def setup_ctx(delta, p=3):
    F = FieldContext(p)
    psi = AdditiveCharacter(F, 0)
    ext = QuadExtContext(F, delta)
    return F, psi, ext, eta_for_extension(ext)


def one(a):
    return CyclotomicScalar.one()


@pytest.mark.parametrize("v", [-1, 0, 2])
@pytest.mark.parametrize("lam", [1, 2])
def test_shell_measure(v, lam):
    # unramified eta is eta(p)^v on the shell; ramified eta averages to 0
    _, _, _, eta = setup_ctx(2)
    expected = Fraction(2, 3) * (-1) ** (v % 2)
    assert shell_sum(one, eta, v, lam, 3).as_rational() == expected
    _, _, _, eta_ram = setup_ctx(3)
    assert shell_sum(one, eta_ram, v, lam, 3).is_zero()


def test_vanishing_values_are_skipped():
    # 1 + e(1/2) is zero but not empty; adding it would leave its terms
    _, _, _, eta = setup_ctx(2)
    zero = CyclotomicScalar({0: 1, Fraction(1, 2): 1})
    assert shell_sum(lambda a: zero, eta, 0, 1, 3).terms == {}


@pytest.mark.parametrize("delta", [2, 3])
def test_shell_sum_is_stable_under_refinement(delta):
    # psi(a / 9) on the unit shell is constant on a(1 + 9 O): lam = 2 is
    # exact, and lam = 1 is too coarse (its Ramanujan sum does not vanish)
    F, psi, _, eta = setup_ctx(delta)
    f = WavePacket(f_space(F, psi, 1), [(1, (0,), (0,), (Fraction(1, 9),))])

    def value(a):
        return f.evaluate((a,))

    exact = shell_sum(value, eta, 0, 2, 3)
    for lam in (3, 4):
        assert (shell_sum(value, eta, 0, lam, 3) - exact).is_zero()
    if delta == 2:
        assert exact.is_zero()
        assert not shell_sum(value, eta, 0, 1, 3).is_zero()


RS_PAIRS = {
    2: "((Cyc(1/9*e(1/9) + 1/9*e(2/9) + 2/3*e(1/3) + 1/9*e(4/9) + 1/9*e(5/9)"
       " + 2/3*e(2/3) + 1/9*e(7/9) + 1/9*e(8/9)), QRational(Poly(1) / Poly(1))),"
       " (Cyc(4/3*e(1/2)), QRational(Poly(1*T^1) / Poly(1))))",
    3: "((Cyc(1/9*e(1/18) + 1/9*e(1/9) + 2/3*e(1/6) + 2/3*e(1/3) + 1/9*e(7/18)"
       " + 1/9*e(4/9) + 1/9*e(13/18) + 1/9*e(7/9)), QRational(Poly(1) / Poly(1))),)",
}


@pytest.mark.parametrize("delta", [2, 3])
def test_orbital_rs_n1_with_frequencies_is_pinned(delta):
    F, psi, _, eta = setup_ctx(delta)
    f = WavePacket(matrix_space_f(F, psi, 2), [
        (1, (0, 0, 0, 0), (0, -1, 0, 0), (0, 0, Fraction(1, 9), 0)),
        (2, (0, 0, 0, 0), (0, -2, -1, 0), (0, 0, Fraction(1, 3), 0)),
    ])
    X = (Fraction(0), Fraction(1), Fraction(1), Fraction(0))
    assert repr(orbital_rs_n1(X, f, eta).pairs) == RS_PAIRS[delta]


MU = {2: "Cyc(1/27)", 3: "Cyc(1/81*e(7/12) + -1/81*e(11/12))"}
MU_NEG = {2: "Cyc(-1/27)", 3: "Cyc(-1/81*e(7/12) + 1/81*e(11/12))"}


@pytest.mark.parametrize("delta", [2, 3])
def test_germ_shell_sums_are_pinned(delta):
    _, psi, ext, eta = setup_ctx(delta)
    phi = make_dagger_scalar(ext, psi, 1)
    assert repr(dagger_mu_closed_form(ext, psi, eta, phi)) == MU[delta]
    assert repr(spherical_rhs(ext, psi, eta, phi, omega_tau=1)) == MU[delta]
    assert repr(spherical_rhs(ext, psi, eta, phi, omega_tau=-1)) == MU_NEG[delta]
    with pytest.raises(NotInDomain):
        spherical_rhs(ext, psi, eta, phi, omega_tau=2)


W = {
    2: "Cyc(1/243*e(1/18) + 1/243*e(1/6) + 1/243*e(5/18) + 1/243*e(7/18)"
       " + 1/243*e(1/2) + 1/243*e(11/18) + 1/243*e(13/18) + 1/243*e(5/6)"
       " + 1/243*e(17/18))",
    3: "Cyc(1/81*e(7/12) + -1/81*e(11/12))",
}


@pytest.mark.parametrize("delta", [2, 3])
def test_compactness_direct_is_pinned(delta):
    _, psi, ext, eta = setup_ctx(delta)
    theta = make_dagger_scalar(ext, psi, 1)
    got = compactness_W_direct(ext, psi, eta, theta, Fraction(1, 27))
    assert repr(got) == W[delta]
