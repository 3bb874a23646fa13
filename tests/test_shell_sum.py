"""The rank-1 shell integral and the integrals built on it.

CyclotomicScalar has no unique normal form, so the reprs below (which the
CLI prints) pin the representation of each value as well as the value.
They were frozen from the per-caller loops that the shell sum replaced.
Each caller is one call of `WavePacket.shell_integrals`, which takes its
unit-coset level from `WavePacket.level` and the conductor of eta; the
last tests check each caller against the oracle enumeration `shell_sum`
at a fixed finer level, at three primes and extensions and three
conductors of psi.
"""

from fractions import Fraction

import pytest

from padharm.characters import AdditiveCharacter, eta_for_extension
from padharm.config import RunConfig
from padharm.cyclotomic import CyclotomicScalar
from padharm.dagger import (
    compactness_W_direct,
    indicator_E,
    make_dagger_scalar,
)
from padharm.errors import NotInDomain, ScaleExceeded
from padharm.orbital import OrbitalResult, orbital_rs_n1, spherical_rhs
from padharm.padic import FieldContext, QuadExtContext, val_p
from padharm.qrational import QRational
from padharm.spaces import WavePacket, f_space, matrix_space_f, riemann_fourier

from oracles import cyc_terms, dagger_mu_closed_form, shell_sum


def setup_ctx(delta, p=3, d=0):
    F = FieldContext(p)
    psi = AdditiveCharacter(F, d)
    ext = QuadExtContext(F, delta)
    return F, psi, ext, eta_for_extension(ext)


def one(a):
    return CyclotomicScalar.one()


@pytest.mark.parametrize("v", [-1, 0, 2])
@pytest.mark.parametrize("lam", [1, 2])
def test_shell_measure(v, lam):
    # unramified eta is eta(p)^v on the shell; ramified eta averages to 0
    F, psi, _, eta = setup_ctx(2)
    expected = Fraction(2, 3) * (-1) ** (v % 2)
    assert shell_sum(one, eta, v, lam, 3).as_rational() == expected
    _, _, _, eta_ram = setup_ctx(3)
    assert shell_sum(one, eta_ram, v, lam, 3).is_zero()
    # the packet 1 on p^-5 O is one on the shell, constant at level 1
    ones = WavePacket.indicator(f_space(F, psi, 1), -5)
    for e, want in ((eta, expected), (eta_ram, 0)):
        (got,) = ones.shell_integrals((0,), ((0, 1, 1),), e, [v], "test")
        assert got.as_rational() == want


def test_vanishing_values_are_skipped():
    # 1 + e(1/2) is zero but not empty; adding it would leave its terms
    _, _, _, eta = setup_ctx(2)
    zero = CyclotomicScalar({0: 1, Fraction(1, 2): 1})
    assert cyc_terms(shell_sum(lambda a: zero, eta, 0, 1, 3)) == {}


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


def test_orbital_rs_n1_refuses_many_shells_before_any_level(monkeypatch):
    # shells 0..5 of the level-0 indicator: 6 * p = 18 cosets at least,
    # more than a limit of 10, which refuses before any shell level
    F, psi, _, eta = setup_ctx(2)
    f = WavePacket.indicator(matrix_space_f(F, psi, 2), 0)

    def level(*args):
        raise AssertionError("a level was computed")

    monkeypatch.setattr(WavePacket, "level", level)
    with RunConfig({"budgets": {"max_cosets": 10}}).scope():
        with pytest.raises(ScaleExceeded, match="rank-1 unit-coset budget"):
            orbital_rs_n1((0, 1, 3 ** 5, 0), f, eta)


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


# Each caller at its derived level against the oracle enumeration at
# ORACLE_LEVEL.  The rule derives levels 1 to 3 for these cases, so the
# oracle is at least one finer.
LEVEL_CASES = [(p, delta, d) for p, delta in ((3, 2), (3, 3), (5, 5))
               for d in (0, 1, 2)]
LEVEL_IDS = [f"p{p}-delta{delta}-d{d}" for p, delta, d in LEVEL_CASES]
ORACLE_LEVEL = 4


@pytest.mark.parametrize("p, delta, d", LEVEL_CASES, ids=LEVEL_IDS)
def test_orbital_rs_n1_level_is_stable_under_slack(p, delta, d):
    F, psi, _, eta = setup_ctx(delta, p, d)
    # a phase that needs level 2 on the unit shell, a coset 1 + p^2 O
    # that needs level 2 there, and a coset off the unit shell
    f = WavePacket(matrix_space_f(F, psi, 2), [
        (1, (0, 0, 0, 0), (0, -1, 0, 0), (0, 0, Fraction(1, p ** 2), 0)),
        (3, (0, 1, 0, 0), (0, 2, 0, 0), (0, 0, 0, 0)),
        (2, (0, Fraction(1, p), 0, 0), (0, 0, -1, 0),
         (0, 0, Fraction(1, p), 0)),
    ])
    X = (Fraction(0), Fraction(1), Fraction(p), Fraction(0))
    exact = orbital_rs_n1(X, f, eta)
    assert exact.pairs
    lo, hi = exact.metadata["shells"]
    shells = range(lo, hi + 1)
    oracle = [shell_sum(lambda h: f.evaluate((0, h, p / h, 0)),
                        eta, v, ORACLE_LEVEL, p) for v in shells]
    pairs = [(s, QRational.monomial(1, v)) for v, s in zip(shells, oracle)]
    assert repr(OrbitalResult(pairs).pairs) == repr(exact.pairs)


@pytest.mark.parametrize("delta", [2, 3])
@pytest.mark.parametrize("r", [3, 10, 50])
def test_orbital_rs_n1_sums_only_the_shells_its_rows_pin(delta, r):
    # x21 = p^r.  The first row pins v(h) = 1 through x12 h, the second
    # v(h) = 2 through x21 / h, so two shells are summed where the support
    # floors gave r + 1; the oracle sums every shell from -2 to r + 2
    p = 3
    F, psi, _, eta = setup_ctx(delta)
    x21 = Fraction(p) ** r
    f = WavePacket(matrix_space_f(F, psi, 2), [
        (1, (0, p, 0, 0), (0, 2, 0, 0), (0, 0, 0, 0)),
        (2, (0, 0, x21 / p ** 2, 0), (0, 0, r - 1, 0), (0, 0, 0, 0)),
    ])
    exact = orbital_rs_n1((0, 1, x21, 0), f, eta)
    assert exact.metadata["shells"] == [1, 2]
    assert len(exact.pairs) == 2
    shells = range(-2, r + 3)
    oracle = [shell_sum(lambda h: f.evaluate((0, h, x21 / h, 0)),
                        eta, v, ORACLE_LEVEL, p) for v in shells]
    pairs = [(s, QRational.monomial(1, v)) for v, s in zip(shells, oracle)]
    assert repr(OrbitalResult(pairs).pairs) == repr(exact.pairs)


@pytest.mark.parametrize("p, delta, d", LEVEL_CASES, ids=LEVEL_IDS)
def test_spherical_rhs_level_is_stable(p, delta, d):
    _, psi, ext, eta = setup_ctx(delta, p, d)
    # at m = 2 the packet's level, 2, is above eta's floor
    phi = make_dagger_scalar(ext, psi, 2)
    hat = phi.packet.fourier()
    s0 = -4 - d - val_p(ext.delta, p)
    got = spherical_rhs(ext, psi, eta, phi)
    assert not got.is_zero()
    oracle = shell_sum(lambda y: hat.evaluate((Fraction(0), -y)),
                       eta, s0, ORACLE_LEVEL, p)
    assert cyc_terms(got) == cyc_terms(oracle)


@pytest.mark.parametrize("p, delta, d", LEVEL_CASES, ids=LEVEL_IDS)
def test_compactness_direct_level_is_stable(p, delta, d):
    _, psi, ext, eta = setup_ctx(delta, p, d)
    theta = make_dagger_scalar(ext, psi, 2)
    # y on the shell that carries the transform of theta
    v = -4 - d - val_p(ext.delta, p)
    y = Fraction(p) ** v
    varphi1 = indicator_E(ext, psi, (2, 2), (1, 0))
    hat = riemann_fourier(theta.packet, (Fraction(0), -y))
    got = compactness_W_direct(ext, psi, eta, theta, y)
    assert not got.is_zero()
    oracle = shell_sum(lambda h: varphi1.evaluate((h / y, Fraction(0))),
                       eta, v, ORACLE_LEVEL, p)
    assert cyc_terms(got) == cyc_terms(hat * oracle)
