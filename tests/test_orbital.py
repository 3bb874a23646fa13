"""Orbital integrals: frozen rank-1 values, nilpotent closed forms and pole
locations, descent indicators, and the germ constant."""

from fractions import Fraction

import pytest

from padharm.cyclotomic import CyclotomicScalar
from padharm.padic import FieldContext, QuadExtContext
from padharm.characters import (
    AdditiveCharacter,
    eta_for_extension,
    eta_prime_default,
)
from padharm.errors import NotRegularSemisimple
from padharm.orbital import (
    OrbitalResult,
    f_natural,
    f_psi_natural,
    germ_constant_check,
    mu_via_nilpotent,
    orbital_nilpotent,
    orbital_rs,
    theorem_germ_gl,
)
from padharm.dagger import make_dagger_scalar
from padharm.qrational import QRational, geometric_tail
from padharm.spaces import WavePacket, matrix_space_f

from oracles import (
    dagger_mu_closed_form,
    f_natural_direct,
    f_psi_natural_direct,
    result_difference,
)


def setup_ctx(delta=2, p=3):
    F = FieldContext(p)
    psi = AdditiveCharacter(F, 0)
    ext = QuadExtContext(F, delta)
    eta = eta_for_extension(ext)
    return F, psi, ext, eta


def test_rs_unit_antidiagonal():
    F, psi, ext, eta = setup_ctx()
    f = WavePacket.indicator(matrix_space_f(F, psi, 2), 0)
    res = orbital_rs((Fraction(0), Fraction(1), Fraction(1), Fraction(0)),
                     f, eta)
    # h ranges over the units: value is the constant 1 - 1/q
    assert res.as_qrational() == QRational.const(Fraction(2, 3))


def test_rs_depth_two_alternating_sum():
    F, psi, ext, eta = setup_ctx()
    f = WavePacket.indicator(matrix_space_f(F, psi, 2), 0)
    res = orbital_rs((Fraction(0), Fraction(1), Fraction(9), Fraction(0)),
                     f, eta)
    # valuations 0, 1, 2 contribute with signs +, -, +
    T = QRational.monomial(1, 1)
    expected = QRational.const(Fraction(2, 3)) * (
        QRational.const(1) - T + T * T)
    assert res.as_qrational() == expected
    assert res.value0().as_rational() == Fraction(2, 3)


def test_rs_refinement_stability():
    F, psi, ext, eta = setup_ctx()
    sp = matrix_space_f(F, psi, 2)
    f = WavePacket.indicator(sp, 0)
    X = (Fraction(0), Fraction(1), Fraction(3), Fraction(0))
    assert orbital_rs(X, f, eta) == orbital_rs(X, f.refined((1, 1, 1, 1)), eta)


def test_rs_rejects_singular_slice():
    F, psi, ext, eta = setup_ctx()
    f = WavePacket.indicator(matrix_space_f(F, psi, 2), 0)
    with pytest.raises(NotRegularSemisimple):
        orbital_rs((Fraction(1), Fraction(0), Fraction(0), Fraction(1)),
                   f, eta)


def test_nilpotent_n1_closed_form():
    F, psi, ext, eta = setup_ctx()
    q = Fraction(3)
    f = WavePacket.indicator(matrix_space_f(F, psi, 2), 0)
    got = orbital_nilpotent("plus", f, eta).as_qrational()
    # (1 - 1/q) / (1 + T), via the independent geometric-series oracle
    oracle = QRational.const(1 - 1 / q) * geometric_tail(-1, 1, 0)
    assert got == oracle
    num, den = QRational.const(1 - 1 / q), (QRational.const(1)
                                            + QRational.monomial(1, 1))
    assert got == num * den.inverse()
    # regularized value at s = 0
    res = orbital_nilpotent("plus", f, eta)
    assert res.value0().as_rational() == (1 - 1 / q) / 2


def test_nilpotent_n2_pole_location():
    F, psi, ext, eta = setup_ctx()
    q = Fraction(3)
    f = WavePacket.indicator(matrix_space_f(F, psi, 3), 0)
    res = orbital_nilpotent("plus", f, eta)
    qr = res.as_qrational()
    assert qr.real_pole_count(1 / q, 1) == 1
    assert qr.pole_order_at_sqrt(Fraction(1, 3), +1) == 1
    assert qr.pole_order_at_sqrt(Fraction(1, 3), -1) <= 1
    assert all(qr.pole_order_at_sqrt(Fraction(1, 3), +1) <= 1
               for _, qr in res.pairs)


def test_nilpotent_minus_sign_matches_plus_at_even_points():
    F, psi, ext, eta = setup_ctx()
    f = WavePacket.indicator(matrix_space_f(F, psi, 2), 0)
    plus = orbital_nilpotent("plus", f, eta)
    minus = orbital_nilpotent("minus", f, eta)
    # for the symmetric unit-lattice indicator the two regularizations agree
    assert not result_difference(plus, minus).pairs or \
        plus.value0().as_rational() == minus.value0().as_rational()


def test_f_natural_is_congruence_indicator():
    F, psi, ext, eta = setup_ctx()
    f = f_natural(ext, psi, 2)
    assert len(f.terms) == 1
    coeff, center, exps, freq = f.terms[0]
    assert center == (0, 0, 0, 0) and freq == (0, 0, 0, 0)
    assert exps == (2, 2, 2, 2)
    assert coeff.as_rational() is not None and coeff.as_rational() > 0


def test_f_natural_matches_direct_enumeration():
    F, psi, ext, eta = setup_ctx()
    eta_prime = eta_prime_default(ext, eta)
    f = f_natural(ext, psi, 1)
    for X in ((Fraction(3), Fraction(3), Fraction(0), Fraction(3)),
              (Fraction(1), Fraction(0), Fraction(0), Fraction(0))):
        direct = f_natural_direct(ext, psi, eta_prime, 1, X)
        assert (f.evaluate(X) - direct).as_rational() == 0


def test_f_psi_natural_level_guard():
    F, psi, ext, eta = setup_ctx()
    phi = make_dagger_scalar(ext, psi, 2)
    from padharm.errors import InvalidLevel
    with pytest.raises(InvalidLevel):
        f_psi_natural(ext, psi, phi, 2)
    g = f_psi_natural(ext, psi, phi, 4)
    assert g.space.dim == 4 and len(g.terms) >= 1


@pytest.mark.parametrize("delta", [2, 3])
@pytest.mark.parametrize("X", [(0, 0, 0, 0), (9, 0, 0, 9), (0, 0, 0, 9),
                               (27, 0, 0, 0), (0, 3, 0, 0)])
def test_f_psi_natural_matches_direct_enumeration(delta, X):
    # inert delta = 2 gives 243, ramified delta = 3 gives 729(e(1/12) - e(5/12));
    # the off-diagonal (0, 3, 0, 0) meets the dagger phase, and tells X from X^t
    F, psi, ext, eta = setup_ctx(delta=delta)
    eta_prime = eta_prime_default(ext, eta)
    phi = make_dagger_scalar(ext, psi, 1)
    X = tuple(Fraction(t) for t in X)
    closed = f_psi_natural(ext, psi, phi, 2).evaluate(X)
    direct = f_psi_natural_direct(ext, psi, eta_prime, phi, 2, X)
    assert not closed.is_zero()
    assert (closed - direct).is_zero()


@pytest.mark.parametrize("delta", [2, 3])
def test_mu_routes_agree(delta):
    F, psi, ext, eta = setup_ctx(delta=delta)
    phi = make_dagger_scalar(ext, psi, 1)
    closed = dagger_mu_closed_form(ext, psi, eta, phi)
    via_nilp = mu_via_nilpotent(ext, psi, eta, phi, 3)
    assert (closed - via_nilp).is_zero()
    assert not closed.is_zero()


def test_germ_constancy_small():
    F, psi, ext, eta = setup_ctx()
    eta_prime = eta_prime_default(ext, eta)
    phi = make_dagger_scalar(ext, psi, 1)
    rep = germ_constant_check(ext, psi, eta, eta_prime, phi, 3,
                              [(0, 1, 0), (1, 1, 0), (0, 2, 0)])
    assert rep["all_equal"]
    assert all(pt["equal"] for pt in rep["points"])


def test_theorem_germ_gl_both_signs():
    F, psi, ext, eta = setup_ctx()
    phi = make_dagger_scalar(ext, psi, 1)
    for omega_tau in (1, -1):
        rep = theorem_germ_gl(ext, psi, eta, phi, 3, omega_tau=omega_tau)
        assert rep["equal"]


def test_orbital_result_algebra():
    one = QRational.const(1)
    T = QRational.monomial(1, 1)
    a = OrbitalResult([(CyclotomicScalar.from_rational(Fraction(1, 2)), one)])
    b = OrbitalResult([(CyclotomicScalar.from_rational(Fraction(1, 2)), one),
                       (CyclotomicScalar.one(), T)])
    assert result_difference(b, a).value_at(Fraction(1, 3)).as_rational() \
        == Fraction(1, 3)
    assert a.scale(2).value0().as_rational() == 1
    assert OrbitalResult([(CyclotomicScalar.zero(), one)]).pairs == ()
