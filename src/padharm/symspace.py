"""The symmetric space attached to a quadratic extension, its Lie
algebra, Hermitian forms, transfer factors, and orbit matching.

Conventions: S = {g in GL_{n+1}(E) : conj(g) g = 1}; its tangent space
at 1 is s = {X : X + conj(X) = 0} (entrywise conjugation), which is
tau * M_{n+1}(F).  The group-side transfer factor is
Omega(s) = eta'( det(s)^-floor((n+1)/2) * det(e; es; ...; es^n) ) with
e the last standard basis row vector.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .characters import eta_for_extension
from .errors import NotInDomain, NotRegularSemisimple
from .matrices import (
    Delta,
    Delta_minus,
    Delta_plus,
    FractionRing,
    QuadExtRing,
    det,
    mat,
    mat_inv,
    mat_mul,
    vec_mat,
    xi_minus,
)


def mat_conj(X):
    return mat([[x.conj() for x in row] for row in X])


# ---------------------------------------------------------------------------
# membership predicates


def in_s_lie(X):
    return all(x.x == 0 for row in X for x in row)


class HermitianForm:
    """A diagonal Hermitian form with entries in F^*."""

    def __init__(self, ext, diag_entries):
        self.ext = ext
        self.diag = tuple(Fraction(x) for x in diag_entries)
        if any(x == 0 for x in self.diag):
            raise NotInDomain("degenerate form")

    def disc(self):
        """Discriminant in F^* (class in F^*/Norms is what matters)."""
        return prod(self.diag, start=Fraction(1))


# ---------------------------------------------------------------------------
# nu, tau-scaling


def nu_map(ext, g):
    """nu(g) = g conj(g)^-1, a retraction onto the symmetric space."""
    R = QuadExtRing(ext)
    return mat_mul(g, mat_inv(R, mat_conj(g)))


def tau_scale(ext, Xf):
    """M_{n+1}(F) -> s, X -> tau X (entries become tau * x)."""
    return mat([[ext.scalar(0, x) for x in row] for row in Xf])


def tau_unscale(ext, X):
    """s -> M_{n+1}(F): X = tau * Y recovers Y (requires X in s)."""
    if not in_s_lie(X):
        raise NotInDomain("element is not in the -1 eigenspace")
    return mat([[x.y for x in row] for row in X])


# ---------------------------------------------------------------------------
# transfer factors


def transfer_factor_S(ext, s, eta_prime):
    """Omega(s) for s in S_{n+1}: eta'(det(s)^-k det(e; es; ...; es^n)),
    k = floor((n+1)/2), rows e s^(i-1)."""
    R = QuadExtRing(ext)
    m = len(s)
    k = m // 2
    cur = tuple(R.one() if j == m - 1 else R.zero() for j in range(m))
    rows = []
    for _ in range(m):
        rows.append(cur)
        cur = vec_mat(cur, s)
    D = det(R, mat(rows))
    if D.is_zero():
        raise NotRegularSemisimple("transfer factor undefined: det(e s^i) = 0")
    inv = det(R, s).inverse()
    for _ in range(k):
        D = D * inv
    return eta_prime(D)


def transfer_factor_group(ext, gamma1, gamma2, eta_prime):
    """Omega(gamma) for gamma = (gamma_1, gamma_2) in H_n(E) x H_{n+1}(E),
    through rel = diag(gamma_1^-1, 1) gamma_2: its first n rows are
    gamma_1^-1 times those of gamma_2, its last row is gamma_2's."""
    R = QuadExtRing(ext)
    m = len(gamma2)
    n = m - 1
    if len(gamma1) != n:
        raise NotInDomain("gamma_1 must be n x n for gamma_2 of size n + 1")
    rel = mat_mul(mat_inv(R, gamma1), gamma2[:n]) + mat([gamma2[n]])
    s = nu_map(ext, rel)
    omega_s = transfer_factor_S(ext, s, eta_prime)
    if n % 2 == 1:
        return eta_prime(det(R, rel)) * omega_s
    return omega_s


def transfer_factor_lie(ext, X, eta_prime, sign="plus"):
    """eta'(Delta_+-(X)) for X in s."""
    R = QuadExtRing(ext)
    D = Delta_plus(R, X) if sign == "plus" else Delta_minus(R, X)
    if D.is_zero():
        raise NotRegularSemisimple("Delta vanishes")
    return eta_prime(D)


def xi_minus_s(ext, m):
    """tau * (lower shift) in s_{m}."""
    Rf = FractionRing()
    return tau_scale(ext, xi_minus(Rf, m))


# ---------------------------------------------------------------------------
# orbit matching


def separating_forms(ext, eta):
    """The diagonal forms (1, 1) and (1, c) whose discriminants 1 and c lie
    in the two classes of F^*/Norm(E^*) that eta tells apart: c = p when
    eta(p) = -1, else the least unit c with eta(c) = -1.  (When eta(p) = 1
    the form (1, p) has a norm discriminant, like (1, 1).)  If eta is -1
    at neither, c = p, and `match_side` refuses the pair."""
    p = ext.F.p
    c = next((c for c in (p, *range(2, p)) if eta.phase(c) == Fraction(1, 2)),
             p)
    return [HermitianForm(ext, (1, 1)), HermitianForm(ext, (1, c))]


def match_side(ext, X, eta, forms):
    """Which unitary side a regular semisimple X in s matches:
    eta(Delta(X/tau)) must equal eta(disc(W_i)).  Returns the index.
    The values are compared by their phases, exact Fractions in [0, 1).
    eta must be the character of E/F: another character's phases can
    separate the forms and name a side that means nothing."""
    own = eta_for_extension(ext)
    if (eta.r_pi, eta.k) != (own.r_pi, own.k):
        raise NotInDomain("eta is not the quadratic character of E/F")
    D = Delta(FractionRing(), tau_unscale(ext, X))
    if D == 0:
        raise NotRegularSemisimple("Delta(X/tau) = 0")
    target = eta.phase(D)
    hits = [i for i, w in enumerate(forms) if eta.phase(w.disc()) == target]
    if len(hits) != 1:
        raise NotInDomain("forms do not separate the two norm classes")
    return hits[0]

