"""Invariant theory of the conjugation action of GL_n on (n+1)x(n+1)
matrices, with exact sections.

Matrices are tuples of tuples over a ring adapter (exact rationals, the
exact quadratic extension E = F(sqrt delta), or Z/p^k for brute-force
oracles); every adapter decides zero exactly.  The sections read their
inputs through `coerce`, which only the rational and Z/p^k adapters
have: no section is built over E.  The block form is
X = [[A, u], [v, w]] with A of size n.  Invariants: a_i = (-1)^(i-1)
tr Lambda^i A read from det(T*1 + A), and b_0 = w, b_j = v A^(j-1) u.
The moment matrices are delta_plus(X) = (A^(n-1)u, ..., Au, u) as
columns and delta_minus(X) = rows (v; vA; ...; vA^(n-1)).

The kernels use ring operations only, so they are exact over every
adapter: `charpoly_plus` is Berkowitz's recursion, which is division-free
over any commutative ring; `det` is the Leibniz expansion over a cached
table of signed permutations up to 4 x 4, and Berkowitz's constant term
above; `conjugate` acts by blocks, h in GL_n on X in M_{n+1} through
diag(h, 1), and inverts h alone.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache

from .errors import NotInDomain, NotRegular

# ---------------------------------------------------------------------------
# ring adapters


class FractionRing:
    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def coerce(self, x):
        return Fraction(x)

    def is_zero(self, x):
        return x == 0

    def is_unit(self, x):
        return x != 0

    def inv(self, x):
        if x == 0:
            raise NotInDomain("inverse of zero")
        return 1 / x


class IntModRing:
    """Z/m with m = p^k; zero test exact, inverses for units only."""

    def __init__(self, p, k=1):
        self.p = p
        self.m = p ** k

    def zero(self):
        return 0

    def one(self):
        return 1

    def coerce(self, x):
        return int(x) % self.m

    def is_zero(self, x):
        return x % self.m == 0

    def is_unit(self, x):
        return x % self.p != 0

    def inv(self, x):
        if not self.is_unit(x):
            raise NotInDomain("not a unit")
        return pow(x, -1, self.m)


class QuadExtRing:
    def __init__(self, ext):
        self.ext = ext

    def zero(self):
        return self.ext.zero()

    def one(self):
        return self.ext.one()

    def is_zero(self, x):
        return x.is_zero()

    def is_unit(self, x):
        return not x.is_zero()

    def inv(self, x):
        return x.inverse()


# ---------------------------------------------------------------------------
# generic matrix algebra


def mat(rows):
    return tuple(tuple(r) for r in rows)


def identity(R, n):
    return mat(
        [[R.one() if i == j else R.zero() for j in range(n)] for i in range(n)]
    )


def mat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0]) if B else 0
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            s = A[i][0] * B[0][j]
            for t in range(1, k):
                s = s + A[i][t] * B[t][j]
            row.append(s)
        out.append(row)
    return mat(out)


def transpose(A):
    return tuple(zip(*A))


_LEIBNIZ_MAX_N = 4


def det(R, A):
    """The Leibniz expansion over `_signed_permutations(n)` up to
    n = _LEIBNIZ_MAX_N, and the constant term of `charpoly_plus` above it:
    ring operations only either way, so exact over any commutative ring.
    Leibniz is the faster at n <= 4 (24 terms); at n = 5 Berkowitz takes
    half its time over Q, and the gap grows like n! / n^4, as would the
    table (the 10! signed permutations of n = 10 take about 0.6 GB).
    The 0 x 0 determinant, the empty product 1, is Berkowitz's too."""
    n = len(A)
    if n > _LEIBNIZ_MAX_N or not n:
        return charpoly_plus(R, A)[n]
    total = R.zero()
    for perm, sign in _signed_permutations(n):
        term = A[0][perm[0]]
        for i in range(1, n):
            term = term * A[i][perm[i]]
        total = total + term if sign > 0 else total - term
    return total


@lru_cache(maxsize=None)
def _signed_permutations(n):
    """(perm, sign) for each permutation of range(n), the sign read from
    the parity of its inversions; computed once per n."""
    return tuple(
        (perm, -1 if sum(perm[i] > perm[j] for i in range(n)
                         for j in range(i + 1, n)) % 2 else 1)
        for perm in itertools.permutations(range(n)))


def mat_inv(R, A):
    """Gauss-Jordan elimination, pivoting on the first unit of R.

    Every adapter's ring is a field or local (Z/p^k).  If no entry of a
    column on or below the diagonal is a unit, then modulo the maximal
    ideal that column is zero outside the pivot rows already taken, so
    the reduction of A is singular and A has no inverse."""
    n = len(A)
    zero, one = R.zero(), R.one()
    aug = [list(A[i]) + [one if j == i else zero for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if R.is_unit(aug[r][col])),
                   None)
        if piv is None:
            raise NotInDomain("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        pinv = R.inv(aug[col][col])
        aug[col] = [pinv * x for x in aug[col]]
        for r in range(n):
            c = aug[r][col]
            if r != col and not R.is_zero(c):
                aug[r] = [x - c * y for x, y in zip(aug[r], aug[col])]
    return mat([row[n:] for row in aug])


def charpoly_plus(R, A):
    """Coefficients (c_0 = 1, c_1, ..., c_n) of det(T*1 + A) in descending
    powers of T, by Berkowitz's recursion on B = -A (S. J. Berkowitz, Inf.
    Process. Lett. 18, 1984).  It uses ring operations only, so it is
    exact over any commutative ring: Q, E and Z/p^k alike.

    Let B_k be the leading k x k block of B, and B_(k+1) = [[B_k, c],
    [r, b]].  Expanding along the last row and column,
    det(T - B_(k+1)) = (T - b) det(T - B_k) - r adj(T - B_k) c, and
    adj(T - B_k) is the polynomial part of det(T - B_k) sum_j B_k^j
    T^(-j-1).  So, with q the coefficients of det(T - B_k) and
    s_j = r B_k^j c, the coefficient of T^(k+1-m) in det(T - B_(k+1)) is
    q_m - b q_(m-1) - sum over i + j = m - 2 of q_i s_j."""
    n = len(A)
    B = [[-x for x in row] for row in A]
    q = [R.one()]
    for k in range(n):
        b, r, col = B[k][k], B[k][:k], [row[k] for row in B[:k]]
        s = []
        for j in range(k):
            if j:
                col = _mat_vec(B[:k], col)
            s.append(_dot(r, col, R))
        new = q + [R.zero()]
        for m in range(1, k + 2):
            t = new[m] - b * q[m - 1]
            for i in range(m - 1):
                t = t - q[i] * s[m - 2 - i]
            new[m] = t
        q = new
    return tuple(q)


# ---------------------------------------------------------------------------
# block structure and invariants


def blocks(X):
    n = len(X) - 1
    A = mat([row[:n] for row in X[:n]])
    u = tuple(X[i][n] for i in range(n))
    v = tuple(X[n][:n])
    w = X[n][n]
    return A, u, v, w


def assemble(A, u, v, w):
    n = len(A)
    rows = [list(A[i]) + [u[i]] for i in range(n)]
    rows.append(list(v) + [w])
    return mat(rows)


def invariants_of(R, X):
    """(a_1..a_n, b_0..b_n) for X in M_{n+1}."""
    A, u, v, w = blocks(X)
    n = len(A)
    cp = charpoly_plus(R, A)  # c_0..c_n, coefficient of T^(n-i) is c_i
    a = tuple(cp[i] if i % 2 == 1 else -cp[i] for i in range(1, n + 1))
    b = [w]
    row = v
    for _ in range(n):
        b.append(_dot(row, u, R))
        row = vec_mat(row, A)
    return a, tuple(b)


def _dot(v, u, R):
    s = R.zero()
    for a, b in zip(v, u):
        s = s + a * b
    return s


def vec_mat(v, A):
    n = len(A)
    return tuple(
        _sum_terms([v[i] * A[i][j] for i in range(n)]) for j in range(n)
    )


def _mat_vec(A, u):
    return tuple(_sum_terms([A[i][j] * u[j] for j in range(len(u))]) for i in range(len(A)))


def _sum_terms(terms):
    s = terms[0]
    for t in terms[1:]:
        s = s + t
    return s


def delta_plus(R, X):
    """Columns (A^(n-1)u, ..., Au, u)."""
    A, u, _, _ = blocks(X)
    n = len(A)
    cols = [u]
    cur = u
    for _ in range(n - 1):
        cur = _mat_vec(A, cur)
        cols.append(cur)
    cols.reverse()
    return transpose(mat(cols))


def delta_minus(R, X):
    """Rows (v; vA; ...; vA^(n-1))."""
    A, _, v, _ = blocks(X)
    n = len(A)
    rows = [v]
    cur = v
    for _ in range(n - 1):
        cur = vec_mat(cur, A)
        rows.append(cur)
    return mat(rows)


def Delta_plus(R, X):
    return det(R, delta_plus(R, X))


def Delta_minus(R, X):
    return det(R, delta_minus(R, X))


def Delta(R, X):
    return Delta_plus(R, X) * Delta_minus(R, X)


def xi_plus(R, m):
    """The upper shift matrix of size m."""
    return mat(
        [
            [R.one() if j == i + 1 else R.zero() for j in range(m)]
            for i in range(m)
        ]
    )


def xi_minus(R, m):
    return transpose(xi_plus(R, m))


def conjugate(R, h, X):
    """h X h^-1 for h in GL_n acting on X in M_{n+1} as diag(h, 1), by
    blocks: X = [[A, u], [v, w]] goes to [[h A h^-1, h u], [v h^-1, w]],
    so only h itself is inverted."""
    A, u, v, w = blocks(X)
    if len(h) != len(A):
        raise NotInDomain("conjugate needs h in GL_n for X in M_(n+1)")
    hinv = mat_inv(R, h)
    return assemble(mat_mul(mat_mul(h, A), hinv), _mat_vec(h, u),
                    vec_mat(v, hinv), w)


def is_nilpotent(R, X):
    """X lies in the null-cone: all invariants vanish."""
    a, b = invariants_of(R, X)
    return all(R.is_zero(x) for x in a) and all(R.is_zero(x) for x in b)


def classify_nilpotent(R, X):
    """For nilpotent X: 'plus'/'minus' when regular (conjugate to the
    matching shift matrix), 'irregular' otherwise."""
    if not is_nilpotent(R, X):
        raise NotInDomain("matrix is not in the null-cone")
    dplus = not R.is_zero(Delta_plus(R, X))
    dminus = not R.is_zero(Delta_minus(R, X))
    if dplus and dminus:
        raise ArithmeticError("nilpotent element with Delta != 0")
    if dplus:
        return "plus"
    if dminus:
        return "minus"
    return "irregular"


# ---------------------------------------------------------------------------
# sections


def section_sigma(R, a, b):
    """sigma(a, b): rows 1..n have a_i in column 1 and 1 on the
    superdiagonal; the last row is (b_n, ..., b_1, b_0)."""
    n = len(a)
    a = [R.coerce(x) for x in a]
    b = [R.coerce(x) for x in b]
    rows = []
    for i in range(n):
        row = [R.zero()] * (n + 1)
        row[0] = a[i]
        row[i + 1] = R.one()
        rows.append(row)
    rows.append([b[n - j] for j in range(n)] + [b[0]])
    return mat(rows)


def section_sigma_prime(R, a, b):
    """sigma'(a, b): rows 1..n-1 are the shift pattern, row n is
    (a_n, ..., a_1, 1), the last row is (b_n, ..., b_1, b_0)."""
    n = len(a)
    a = [R.coerce(x) for x in a]
    b = [R.coerce(x) for x in b]
    rows = []
    for i in range(n - 1):
        row = [R.zero()] * (n + 1)
        row[i + 1] = R.one()
        rows.append(row)
    rows.append([a[n - 1 - j] for j in range(n)] + [R.one()])
    rows.append([b[n - j] for j in range(n)] + [b[0]])
    return mat(rows)


def varrho(R, a, b):
    """The transpose of sigma'."""
    return transpose(section_sigma_prime(R, a, b))


def iota(R, h, a, b):
    return conjugate(R, h, section_sigma(R, a, b))


def iota_inverse(R, X):
    """(h, (a, b)) with X = h sigma(a,b) h^-1; requires Delta_+ invertible
    (delta_+(sigma(a,b)) = 1, so h = delta_+(X))."""
    h = delta_plus(R, X)
    if not R.is_unit(det(R, h)):
        raise NotRegular("Delta_+(X) = 0: X is outside the plus chart")
    a, b = invariants_of(R, X)
    return h, (a, b)


def iota_prime_inverse(R, X):
    """(h, (a, b)) with X = h sigma'(a,b) h^-1, via the three-step solve:
    a from the characteristic polynomial of A, then h from the moment
    matrices, then b from (v h, w)."""
    A, u, v, w = blocks(X)
    n = len(A)
    cp = charpoly_plus(R, A)
    a = tuple(cp[i] if i % 2 == 1 else -cp[i] for i in range(1, n + 1))
    zero_b = [R.zero()] * (n + 1)
    ref = section_sigma_prime(R, a, zero_b)
    h = mat_mul(delta_plus(R, X), mat_inv(R, delta_plus(R, ref)))
    if not R.is_unit(det(R, h)):
        raise NotInDomain("matrix is singular")
    vh = vec_mat(v, h)
    b = [w] + [vh[n - i] for i in range(1, n + 1)]  # (vh)_j = b_{n-j+1}
    return h, (a, tuple(b))


def nu_plus(R, u_mat):
    """u xi_+ u^-1 for u in N_n embedded in GL_{n+1}."""
    m = len(u_mat) + 1
    return conjugate(R, u_mat, xi_plus(R, m))


# ---------------------------------------------------------------------------
# triangular-map checking over (Z/p^N)^m


EXHAUSTIVE_DOMAIN_MAX = 200000


def triangular_check(phi, m, p, Npow, samples=10000, seed=0):
    """Assert phi: (Z/p^N)^m -> (Z/p^N)^m is a bijection.

    Exhaustive fiber count when the domain has at most
    EXHAUSTIVE_DOMAIN_MAX points, otherwise a seeded collision check on
    `samples` random points.  Returns a report dict.
    """
    size = (p ** Npow) ** m
    mod = p ** Npow
    if size <= EXHAUSTIVE_DOMAIN_MAX:
        seen = set()
        for x in itertools.product(range(mod), repeat=m):
            y = tuple(c % mod for c in phi(x))
            if y in seen:
                raise ArithmeticError(f"fiber of size >= 2 over {y}")
            seen.add(y)
        if len(seen) != size:
            raise ArithmeticError("image is smaller than the domain")
        return {"mode": "exhaustive", "domain": size, "fibers": 1}
    rng = random.Random(seed)
    seen = {}
    for _ in range(samples):
        x = tuple(rng.randrange(mod) for _ in range(m))
        y = tuple(c % mod for c in phi(x))
        if y in seen and seen[y] != x:
            raise ArithmeticError("collision found: map is not injective")
        seen[y] = x
    return {"mode": "sampled", "domain": size, "samples": samples}


# ---------------------------------------------------------------------------
# finite-field brute-force oracle (regular nilpotent classification)


def nilpotent_cone_Fp(p):
    """All nilpotent X in M_3(F_p) for the invariant map (n = 2),
    enumerated from the constraint equations."""
    R = IntModRing(p, 1)
    out = []
    for entries in itertools.product(range(p), repeat=4):
        A = mat([entries[:2], entries[2:]])
        tr = (A[0][0] + A[1][1]) % p
        dA = (A[0][0] * A[1][1] - A[0][1] * A[1][0]) % p
        if tr or dA:
            continue
        for u in itertools.product(range(p), repeat=2):
            Au = _mat_vec(A, u)
            for v in itertools.product(range(p), repeat=2):
                if _dot(v, u, R) % p or _dot(v, Au, R) % p:
                    continue
                out.append(assemble(A, u, v, 0))
    return out


def gl_n_Fp(p, n):
    R = IntModRing(p, 1)
    out = []
    for entries in itertools.product(range(p), repeat=n * n):
        h = mat([entries[i * n:(i + 1) * n] for i in range(n)])
        d = det(R, h) % p
        if d:
            out.append(h)
    return out


def orbit_of(R, X, group):
    seen = set()
    for h in group:
        Y = conjugate(R, h, X)
        seen.add(tuple(tuple(int(e) % R.m for e in row) for row in Y))
    return seen
