"""The symmetric space attached to a quadratic extension, its Lie
algebra, unitary Lie algebras, Cayley transport, transfer factors, and
orbit matching.

Conventions: S = {g in GL_{n+1}(E) : conj(g) g = 1}; its tangent space
at 1 is s = {X : X + conj(X) = 0} (entrywise conjugation), which is
tau * M_{n+1}(F).  For a Hermitian matrix theta, u(theta) = {X :
conj(X)^t = -theta X theta^-1}.  The group-side transfer factor is
Omega(s) = eta'( det(s)^-floor((n+1)/2) * det(e; es; ...; es^n) ) with
e the last standard basis row vector.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotInDomain, NotRegularSemisimple
from .matrices import (
    Delta,
    Delta_minus,
    Delta_plus,
    FractionRing,
    QuadExtRing,
    det,
    embed_h,
    identity,
    invariants_of,
    mat,
    mat_add,
    mat_inv,
    mat_mul,
    mat_neg,
    mat_sub,
    transpose,
    vec_mat,
    xi_minus,
    xi_plus,
)
from .padic import solve_norm


def mat_conj(X):
    return mat([[x.conj() for x in row] for row in X])


def conj_transpose(X):
    return transpose(mat_conj(X))


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

    @property
    def n(self):
        return len(self.diag)

    def matrix(self):
        R = QuadExtRing(self.ext)
        m = len(self.diag)
        return mat(
            [
                [R.coerce(self.diag[i]) if i == j else R.zero() for j in range(m)]
                for i in range(m)
            ]
        )

    def disc(self):
        """Discriminant in F^* (class in F^*/Norms is what matters)."""
        d = Fraction(1)
        for x in self.diag:
            d *= x
        return d

    def extend_by_line(self):
        """The form on V = W + E e with theta(e, e) = 1."""
        return HermitianForm(self.ext, self.diag + (Fraction(1),))


def in_u_lie(X, form):
    R = QuadExtRing(form.ext)
    th = form.matrix()
    lhs = conj_transpose(X)
    rhs = mat_mul(mat_mul(th, X), mat_inv(R, th))
    return all(
        (lhs[i][j] + rhs[i][j]).is_zero()
        for i in range(len(X))
        for j in range(len(X))
    )


# ---------------------------------------------------------------------------
# Cayley transport, nu, tau-scaling


def cayley(ext, X):
    """(1 + X)(1 - X)^-1; defined when 1 - X is invertible."""
    R = QuadExtRing(ext)
    one = identity(R, len(X))
    return mat_mul(mat_add(one, X), mat_inv(R, mat_sub(one, X)))


def cayley_inverse(ext, g):
    """-(1 - g)(1 + g)^-1."""
    R = QuadExtRing(ext)
    one = identity(R, len(g))
    return mat_neg(mat_mul(mat_sub(one, g), mat_inv(R, mat_add(one, g))))


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
    e = tuple(R.one() if j == m - 1 else R.zero() for j in range(m))
    rows = []
    cur = e
    for _ in range(m):
        rows.append(cur)
        cur = vec_mat(cur, s)
    D = det(R, mat(rows))
    if D.is_zero():
        raise NotRegularSemisimple("transfer factor undefined: det(e s^i) = 0")
    ds = det(R, s)
    val = D
    inv = ds.inverse()
    for _ in range(k):
        val = val * inv
    return eta_prime(val)


def transfer_factor_group(ext, gamma1, gamma2, eta_prime):
    """Omega(gamma) for gamma = (gamma_1, gamma_2) in H_n(E) x H_{n+1}(E)."""
    R = QuadExtRing(ext)
    m = len(gamma2)
    n = m - 1
    g1 = embed_h(R, gamma1, m)
    rel = mat_mul(mat_inv(R, g1), gamma2)
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


def xi_plus_s(ext, m):
    Rf = FractionRing()
    return tau_scale(ext, xi_plus(Rf, m))


# ---------------------------------------------------------------------------
# orbit matching


def match_side(ext, X, eta, forms):
    """Which unitary side a regular semisimple X in s matches:
    eta(Delta(X/tau)) must equal eta(disc(W_i)).  Returns the index.
    The values are compared by their phases, exact Fractions in [0, 1)."""
    D = Delta(FractionRing(), tau_unscale(ext, X))
    if D == 0:
        raise NotRegularSemisimple("Delta(X/tau) = 0")
    target = eta.phase(D)
    hits = [i for i, w in enumerate(forms) if eta.phase(w.disc()) == target]
    if len(hits) != 1:
        raise NotInDomain("forms do not separate the two norm classes")
    return hits[0]


def match_witness_rank1(ext, X, eta, form):
    """Explicit matched element Y in u(theta) for 2x2 X in s (n = 1).

    X has invariants (a_1; b_0, b_1); a matching Y = [[alpha, beta],
    [gamma, delta]] needs alpha = a_1, delta = b_0, and beta gamma = b_1
    with gamma = -conj(beta) theta_1/theta_2, i.e. Norm(beta) =
    -b_1 theta_2/theta_1 ... solved by the norm equation."""
    if len(X) != 2:
        raise NotInDomain("witness construction is rank-1 only")
    R = QuadExtRing(ext)
    theta = form.extend_by_line() if form.n == 1 else form
    if theta.n != 2:
        raise NotInDomain("need a 2x2 Hermitian form")
    (a,), b = invariants_of(R, X)
    t1, t2 = theta.diag
    # Norm(beta) * (-t1/t2) = b_1, with b_1 in F (it is, for X in s... b_1
    # lands in F exactly when X is in s or u; enforce that)
    b1 = b[1]
    if b1.y != 0:
        raise NotInDomain("b_1 is not in F")
    c = -b1.x * Fraction(t2, t1)
    beta = solve_norm(ext, c)
    gamma = -(beta.conj()) * ext.scalar(Fraction(t1, t2), 0)
    Y = mat([[a, beta], [gamma, b[0]]])
    if not in_u_lie(Y, theta):
        raise ArithmeticError("constructed witness is not in u(theta)")
    return Y
