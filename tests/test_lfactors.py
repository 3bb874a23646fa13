"""Local L-factors, volumes, and the comparison constant kappa."""

from fractions import Fraction

import pytest

from padharm import lfactors
from padharm.cyclotomic import CyclotomicScalar
from padharm.errors import NotInDomain
from padharm.padic import FieldContext, QuadExtContext
from padharm.characters import (
    AdditiveCharacter,
    eta_for_extension,
    eta_prime_default,
)
from padharm.qrational import QRational


def test_zeta_values_at_q():
    q = Fraction(3)
    u = 1 / q
    assert lfactors.zeta_local(2).evaluate(u) == 1 / (1 - u**2)
    with pytest.raises(NotInDomain):
        lfactors.zeta_local(0)


def test_l_eta_places():
    u = Fraction(1, 3)
    assert lfactors.l_eta(1).evaluate(u) == 1 / (1 + u)
    assert lfactors.l_eta(2).evaluate(u) == 1 / (1 - u**2)


def test_point_count_vs_delta_constant():
    for m in range(1, 5):
        lhs = QRational.monomial(1, m * m) * lfactors.unitary_point_count(m)
        assert lhs == lfactors.delta_constant(m).inverse()


def test_point_count_small_numeric():
    # |U_1(F_q)| = q + 1, |U_2(F_q)| = q(q-1)(q+1)^2... evaluated at q = 3
    u = Fraction(1, 3)
    assert lfactors.unitary_point_count(1).evaluate(u) == 4
    assert lfactors.unitary_point_count(2).evaluate(u) == 3 * 2 * 16


def test_hyperspecial_volume_routes():
    for m in range(1, 5):
        assert lfactors.hyperspecial_volume(m, via="points") == \
            lfactors.hyperspecial_volume(m, via="lfactor")
    with pytest.raises(NotInDomain):
        lfactors.hyperspecial_volume(2, via="bogus")


def test_vol_gl_times_zeta_is_one():
    for m in range(1, 5):
        prod = lfactors.vol_gl(m)
        for i in range(2, m + 1):
            prod = prod * lfactors.zeta_local(i)
        assert prod == QRational.const(1)


def test_d_binomial():
    assert [lfactors.d_binomial(n) for n in range(1, 5)] == [0, 0, 1, 4]


def test_unramified_identity():
    l1 = lfactors.l_eta(1)
    for n in (1, 2):
        rep = lfactors.unramified_identity(n)
        assert rep["I_coefficient"] == QRational.const(1)
        assert rep["J_coefficient"] == l1
        assert rep["I_coefficient"] == l1.inverse() * rep["J_coefficient"]
        assert lfactors.hyperspecial_volume(n + 1, via="points") == \
            lfactors.hyperspecial_volume(n + 1)


def test_kappa_unramified_is_one():
    F = FieldContext(3)
    psi = AdditiveCharacter(F, 0)
    ext = QuadExtContext(F, 2)
    eta = eta_for_extension(ext)
    eta_prime = eta_prime_default(ext, eta)
    one = CyclotomicScalar.one()
    for n in range(1, 4):
        k = lfactors.kappa(n, ext, eta, eta_prime, psi)
        assert (k - one).is_zero()


def test_lfactor_table():
    rows = lfactors.lfactor_table(3, n_max=2)
    assert rows
    for row in rows:
        assert row["value_at_q"] == row["rational_function"].evaluate(
            Fraction(1, 3))
