"""Local L-factors, volumes and the unramified bookkeeping identity.

Everything here is exact rational-function arithmetic in U = q^(-1)
(reusing the QRational machinery with the variable reinterpreted), plus
cyclotomic values for the epsilon-type constant kappa.  At an inert
unramified place: zeta(i) = (1 - U^i)^(-1), the geometric series in U^i;
L(i, eta^i) alternates between (1 + U^i)^(-1) (i odd) and zeta(i)
(i even); and the standard product Delta_m = prod_{i=1}^m L(i, eta^i)
controls the hyperspecial volume of the unitary group through the point
count over the residue field.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .cyclotomic import sqrt_rational_power
from .errors import NotInDomain
from .padic import val_p
from .qrational import QRational, geometric_tail


def _one_minus(coeff, k):
    """1 - coeff * U^k as a QRational."""
    return QRational.const(1) - QRational.monomial(coeff, k)


def zeta_local(i):
    """zeta_v(i) = sum_v U^(iv) for the base field, as a rational function
    of U = q^(-1)."""
    if i < 1:
        raise NotInDomain("zeta argument must be a positive integer")
    return geometric_tail(1, i, 0)


def l_eta(i):
    """L(i, eta^i) at an inert place: the eta power is trivial for even i."""
    if i % 2 == 0:
        return zeta_local(i)
    return geometric_tail(-1, i, 0)


def delta_constant(m):
    """Delta_m = prod_{i=1}^m L(i, eta^i)."""
    out = QRational.const(1)
    for i in range(1, m + 1):
        out = out * l_eta(i)
    return out


def vol_gl(n, degree=1):
    """vol(GL_n(O)) = prod_{i=2}^n zeta(i)^(-1) over the base field or its
    quadratic unramified extension."""
    out = QRational.const(1)
    for i in range(2, n + 1):
        out = out * _one_minus(1, degree * i)
    return out


def unitary_point_count(m):
    """|U_m(F_q)| = q^(m(m-1)/2) prod_{i=1}^m (q^i - (-1)^i), as a rational
    function of U = q^(-1)."""
    out = QRational.monomial(1, -(m * (m - 1)) // 2)
    for i in range(1, m + 1):
        out = out * (QRational.monomial(1, -i) - QRational.const((-1) ** i))
    return out


def hyperspecial_volume(m, via="lfactor"):
    """The volume of the hyperspecial maximal compact of U_m in the measure
    with the L(1, eta) convergence factor: L(1, eta) Delta_m^(-1), also
    computable from the residue point count as q^(-m^2) |U_m(F_q)| L(1, eta)."""
    if via == "lfactor":
        return l_eta(1) * delta_constant(m).inverse()
    if via == "points":
        return QRational.monomial(1, m * m) * unitary_point_count(m) * l_eta(1)
    raise NotInDomain("via must be 'lfactor' or 'points'")


def vol_u1_global():
    """The global volume of [U(1)] in the same measure: 2 L(1, eta)."""
    return QRational.const(2) * l_eta(1)


def d_binomial(n):
    """The exponent d_n = C(n, 3) of |tau| in the local comparison."""
    return comb(n, 3)


def kappa(n, ext, eta, eta_prime, psi):
    """The local comparison constant for a hermitian space W of
    discriminant class 1 and a central character trivial on tau,

        kappa = |tau|_E^((d_n + d_{n+1})/2)
                * (eps(1/2, eta, psi) / eta'(tau))^(n(n+1)/2),

    as an exact cyclotomic scalar; |tau|_E = q^(-v(delta)).  The general
    constant carries the further factor eta(disc W) * omega(tau), which is
    1 here."""
    from .characters import epsilon_half

    p = ext.F.p
    vdelta = val_p(ext.delta, p)
    dsum = d_binomial(n) + d_binomial(n + 1)
    out = sqrt_rational_power(p, -vdelta * dsum)
    eps = epsilon_half(eta, psi)
    ratio = eps * eta_prime(ext.tau()).conj()
    for _ in range(n * (n + 1) // 2):
        out = out * ratio
    return out


def unramified_identity(n):
    """The unramified volume bookkeeping, with the central L-value ratio
    kept as a formal symbol: the split-group side collapses to 1 and the
    unitary side to L(1, eta), so the two local distributions differ by
    exactly L(1, eta).  Every ratio is computed, none is assumed; the
    `local-factors` suite compares I with 1 and J with L(1, eta)."""
    # split-group side: spherical projector volume ratio, the Whittaker
    # functional volume, and the inner-product volumes over E
    vol_G_prime = vol_gl(n, degree=2) * vol_gl(n + 1, degree=2)
    vol_H1 = vol_gl(n)
    vol_H2 = vol_gl(n + 1)
    i_coeff = (
        (vol_G_prime / (vol_H1 * vol_H2))
        * vol_H1
        * (vol_H2 / (vol_gl(n, degree=2) * vol_gl(n + 1, degree=2)))
    )
    # unitary side: projector ratio times the spherical period constant
    j_coeff = hyperspecial_volume(n + 1, via="points") * delta_constant(n + 1)
    return {"n": n, "I_coefficient": i_coeff, "J_coefficient": j_coeff}


def lfactor_table(q, n_max=4):
    """The CLI table: named factors with their rational functions and exact
    values at a given q."""
    rows = []

    def add(name, value, exponent=0):
        rows.append(
            {
                "name": name,
                "rational_function": value,
                "value_at_q": value.evaluate(Fraction(1, q)),
                "exponent": exponent,
            }
        )

    for i in range(1, n_max + 1):
        add(f"zeta({i})", zeta_local(i))
        add(f"L({i},eta^{i})", l_eta(i), exponent=i % 2)
    # Delta_m = Delta_(m-1) L(m, eta^m), and the hyperspecial volume is
    # hyperspecial_volume(m)'s L(1, eta) Delta_m^(-1) on the same product
    delta = QRational.const(1)
    for m in range(1, n_max + 1):
        delta = delta * l_eta(m)
        add(f"Delta_{m}", delta)
        add(f"vol(GL_{m}(O))", vol_gl(m))
        add(f"vol(U_{m} hyperspecial)", l_eta(1) * delta.inverse())
    add("vol([U(1)])", vol_u1_global())
    return rows
