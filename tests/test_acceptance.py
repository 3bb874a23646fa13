"""Acceptance gate: the eleven exact desk-scale identities, run at their
full advertised sizes with wall-clock budgets."""

import time
from fractions import Fraction

import pytest

from padharm.padic import FieldContext
from padharm.characters import AdditiveCharacter, eta_for_extension
from padharm.padic import QuadExtContext
from padharm.orbital import GERM_POINTS, orbital_nilpotent
from padharm.qrational import QRational, geometric_tail
from padharm.spaces import WavePacket, matrix_space_f
from padharm.suites import run_suite


def run_within(name, budget_seconds, **flags):
    start = time.monotonic()
    rep = run_suite(name, **flags)
    elapsed = time.monotonic() - start
    assert rep["passed"], rep["failures"]
    assert elapsed < budget_seconds, (
        f"{rep['suite']} took {elapsed:.1f}s, budget {budget_seconds}s")
    return rep


def test_01_section_identities():
    rep = run_within("section-identities", 10, n=3, samples=500)
    # 500 samples for each of the six (n, p) combinations, over Z/p^5
    assert rep["stats"]["n_values"] == [1, 2, 3]
    assert rep["stats"]["p_values"] == [3, 5]
    assert rep["stats"]["N"] == 5
    assert rep["stats"]["samples"] == 500 * 6


def test_02_triangularity():
    run_within("triangularity", 30)


def test_03_nilpotent_orbit_dichotomy():
    rep = run_within("nilpotent-orbits", 60)
    assert sorted(rep["stats"]) == ["p3", "p5"]


def test_04_fourier():
    rep = run_within("fourier", 10, samples=200)
    assert rep["stats"]["samples"] == 200


def test_05_nilpotent_orbital_integrals():
    run_within("oi-nilpotent", 60)
    # independent oracle, restated here so the gate does not rely on the
    # suite's internal bookkeeping: the n = 1 integral is a single Tate
    # factor, a geometric series in -T with unit-shell measure 1 - 1/q
    F = FieldContext(3)
    psi = AdditiveCharacter(F, 0)
    eta = eta_for_extension(QuadExtContext(F, 2))
    f = WavePacket.indicator(matrix_space_f(F, psi, 2), 0)
    got = orbital_nilpotent("plus", f, eta).as_qrational()
    q = Fraction(3)
    assert got == QRational.const(1 - 1 / q) * geometric_tail(-1, 1, 0)
    # and in closed form (1 - 1/q)/(1 + T)
    assert got == QRational.const(1 - 1 / q) * (
        QRational.const(1) + QRational.monomial(1, 1)).inverse()


def test_06_transfer_equivariance_and_matching():
    rep = run_within("transfer", 30, samples=100)
    assert rep["stats"]["equivariance_samples"] == 100


def test_07_dagger_compactness():
    rep = run_within("dagger", 120)
    assert rep["stats"]["m_values"] == [1, 2]
    assert rep["stats"]["points"] == 20


def test_08_germ_constancy():
    assert len(GERM_POINTS) >= 5
    rep = run_within("germ", 120)
    assert rep["stats"]["points"] >= 5
    assert rep["stats"]["points"] == len(GERM_POINTS)


def test_09_theorem_germ_gl():
    rep = run_within("theorem-germ-gl", 120)
    assert rep["stats"]["omega_1"]["equal"]
    assert rep["stats"]["omega_-1"]["equal"]


def test_10_local_factors():
    run_within("local-factors", 5)


def test_11_local_constancy():
    rep = run_within("local-constancy", 60, pairs=10)
    assert rep["stats"]["pairs"] == 10
