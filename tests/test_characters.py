import random
from fractions import Fraction

import pytest

from padharm.cyclotomic import CyclotomicScalar
from padharm.padic import FieldContext, QuadExtContext
from padharm.characters import (
    AdditiveCharacter,
    ExtCharacter,
    MultiplicativeCharacter,
    _dlog_table_Fp2,
    epsilon_half,
    eta_for_extension,
    eta_prime_default,
    gauss_sum,
)


@pytest.fixture
def F():
    return FieldContext(3)


def test_additive_character_is_additive(F):
    psi = AdditiveCharacter(F, 0)
    pts = [Fraction(1, 3), Fraction(2, 9), Fraction(5), Fraction(-1, 3)]
    for x in pts:
        for y in pts:
            assert (psi(x + y) - psi(x) * psi(y)).is_zero()


def test_additive_character_trivial_on_lattice(F):
    psi = AdditiveCharacter(F, 0)
    one = CyclotomicScalar.one()
    for x in (Fraction(0), Fraction(1), Fraction(3), Fraction(27)):
        assert (psi(x) - one).is_zero()
    # nontrivial off the conductor lattice
    assert not (psi(Fraction(1, 3)) - one).is_zero()


def test_eta_inert_is_unramified_quadratic(F):
    ext = QuadExtContext(F, 2)
    eta = eta_for_extension(ext)
    assert eta.is_unramified
    assert eta.is_quadratic
    # eta(x) = (-1)^v(x)
    assert eta(Fraction(3)).as_rational() == -1
    assert eta(Fraction(9)).as_rational() == 1
    assert eta(Fraction(2)).as_rational() == 1


def test_eta_ramified_detects_norms(F):
    ext = QuadExtContext(F, 3)
    eta = eta_for_extension(ext)
    assert not eta.is_unramified
    assert eta.is_quadratic
    # norms from E = F(sqrt(3)) include -3 = N(tau) * (-1)... test the
    # defining property eta(N(z)) = 1 on a few norms
    for x, y in ((1, 1), (2, 1), (1, 3), (4, 2)):
        n = Fraction(x) ** 2 - 3 * Fraction(y) ** 2
        if n != 0:
            assert eta(n).as_rational() == 1
    # and eta is multiplicative
    for a in (Fraction(2), Fraction(3), Fraction(5)):
        for b in (Fraction(7), Fraction(1, 3)):
            assert (eta(a * b) - eta(a) * eta(b)).is_zero()


def test_eta_prime_restricts_to_eta(F):
    for d in (2, 3):
        ext = QuadExtContext(F, d)
        eta = eta_for_extension(ext)
        eta_prime = eta_prime_default(ext, eta)
        # F^* is generated by p and the units, and a tame character is
        # fixed on the units by its value at 2, a generator of F_3^*
        for x in (F.p, 2):
            assert eta_prime.phase(x) == eta.phase(x)


def test_gauss_sum_magnitude(F):
    # |g(eta, psi)|^2 = q for a ramified quadratic character
    ext = QuadExtContext(F, 3)
    eta = eta_for_extension(ext)
    psi = AdditiveCharacter(F, 0)
    g = gauss_sum(eta, psi)
    assert (g * g.conj()).as_rational() == 3


def test_epsilon_half_unit_modulus(F):
    ext = QuadExtContext(F, 3)
    eta = eta_for_extension(ext)
    psi = AdditiveCharacter(F, 0)
    eps = epsilon_half(eta, psi)
    assert (eps * eps.conj() - CyclotomicScalar.one()).is_zero()


def test_epsilon_half_unramified_is_one(F):
    ext = QuadExtContext(F, 2)
    eta = eta_for_extension(ext)
    psi = AdditiveCharacter(F, 0)
    eps = epsilon_half(eta, psi)
    assert (eps - CyclotomicScalar.one()).is_zero()


def test_multiplicative_character_powers(F):
    eta = MultiplicativeCharacter(F, Fraction(1, 2), 0)
    sq = eta ** 2
    for x in (Fraction(3), Fraction(2), Fraction(1, 9)):
        assert ((eta(x) * eta(x)) - sq(x)).is_zero()


@pytest.mark.parametrize("p", [3, 5])
def test_inert_residue_character_of_E(p):
    # delta = 2 is a non-square unit at p = 3 and p = 5; the residue part
    # of eta' reads discrete logs in F_{p^2}^* = F_p[t]/(t^2 - 2)
    ext = QuadExtContext(FieldContext(p), 2)
    assert ext.is_inert
    k, order = 1, p * p - 1
    chi = ExtCharacter(ext, Fraction(1, 2), k)
    (gx, gy), _ = _dlog_table_Fp2(p, 2)
    assert chi.phase(ext.scalar(gx, gy)) == Fraction(k, order)
    rng = random.Random(p)

    def unit():
        # p-integral coordinates, not both divisible by p
        while True:
            x, y = (Fraction(rng.randrange(-p ** 3, p ** 3),
                             rng.choice([1, 2, 7, 11])) for _ in range(2))
            if x.numerator % p or y.numerator % p:
                return ext.scalar(x, y)

    for _ in range(40):
        z, w = unit(), unit()
        assert chi.phase(z * w) == (chi.phase(z) + chi.phase(w)) % 1
        t = ext.scalar(rng.randrange(-9, 9), rng.randrange(-9, 9))
        assert chi.phase(z + t * ext.scalar(p)) == chi.phase(z)
