"""Reference routes that tests compare the library against.

Each is an independent, slower computation of a value the library gets
another way:

* ``f_natural_direct`` and ``f_psi_natural_direct`` enumerate the rank-1
  descent integrals cell by cell, against the product forms
  ``orbital.f_natural`` and ``orbital.f_psi_natural``;
* ``shell_sum`` enumerates one valuation shell of a callback at a given
  unit-coset level, against ``spaces.WavePacket.shell_integrals``, which
  sums a packet along a line at the level it derives;
* ``dagger_mu_closed_form`` is the germ constant as a shell character
  sum, against ``orbital.mu_via_nilpotent`` and the pinned values of
  ``spherical_rhs``;
* ``FractionCyclotomic`` is the cyclotomic scalar keyed by Fraction
  exponents and reduced in Fraction arithmetic modulo the dense
  ``cyclotomic_poly``, against ``cyclotomic.CyclotomicScalar`` on int
  exponents at one conductor and int coefficients over one denominator,
  whose zero test splits the conductor prime by prime;
* ``trace_rational`` decides the same questions by the trace form, at a
  cost that depends on the number of terms and not on the conductor;
  ``cyc_terms`` reads a ``CyclotomicScalar`` into the Fraction-keyed dict
  that both take;
* ``result_difference`` is the difference of two ``OrbitalResult``s,
  built by merging their pairs, against ``OrbitalResult.__eq__``, which
  compares coefficients per R_i without building it;
* ``FractionQRational`` is the rational function as a monic Fraction
  denominator over a Fraction numerator, reduced by the Euclidean gcd
  over Q (``FractionPoly``), with its own evaluation, reduction mod
  T^2 - s0 and Sturm chain, against ``qrational.QRational`` on coprime
  int numerator and denominator tuples, which ``monic_view`` reads into
  the oracle's form;
* ``qrational`` reduces any int numerator and denominator to the normal
  form with one polynomial gcd, against the operations of
  ``qrational.QRational``, which build each value in normal form;
* ``passing_cells`` is the rank-2 cell walk that yields each passing
  cell with its hits, its coset tests as ``all``/``any`` generators,
  and ``cell_counts_of`` counts its cells, against ``cells.cell_counts``,
  which counts inside the walk with early-exit loops;
* ``charpoly_plus_leibniz`` expands det(T*1 + A) by Leibniz over R[T],
  signing each permutation by its cycles, against Berkowitz's recursion
  in ``matrices.charpoly_plus``; ``det_laplace`` expands along the first
  row, against ``matrices.det``, Leibniz over its cached table of
  signed permutations up to 4 x 4 and Berkowitz above; ``adjugate`` builds adj(A) from ``det_laplace``
  cofactors, so adj(A) / det(A) checks the Gauss-Jordan
  ``matrices.mat_inv``; ``conjugate_embedded`` is h X h^-1 as the full
  (n+1) x (n+1) product with diag(h, 1), against the blockwise
  ``matrices.conjugate``.
"""

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from padharm.cells import cell_value
from padharm.cyclotomic import CyclotomicScalar
from padharm.dagger import shell_valuation
from padharm.errors import NotInDomain, PoleAtEvaluationPoint
from padharm.matrices import QuadExtRing, det, mat, mat_mul
from padharm.orbital import (
    OrbitalResult,
    _inv_vol,
    _phi_minus_packet,
    _require_quadratic,
    c_psi_plus,
)
from padharm.padic import strip_p, val_p
from padharm.qrational import _gcd, _lowest, _quo, _trim
from padharm.spaces import e_space, f_space, matrix_space_e


def f_natural_direct(ext, psi, eta_prime, r, X):
    """Independent enumeration of the descent integral at one point X of the
    tau-part coordinates: integrate the normalized congruence indicator over
    the split group against eta'(det)."""
    p = ext.F.p
    X = tuple(Fraction(t) for t in X)
    vX = min([val_p(t, p) for t in X if t != 0] or [0])
    L = r + max(1, -min(0, vX))
    c2 = _inv_vol(matrix_space_e(ext, psi, 2), (r,) * 8)
    cellvol = f_space(ext.F, psi, 4).vol_lattice((L,) * 4)
    Xm = [[X[0], X[1]], [X[2], X[3]]]
    det1X = det(QuadExtRing(ext), _one_plus_tau(ext, Xm))
    total = CyclotomicScalar.zero()
    reps = [Fraction(j * p ** r) for j in range(p ** (L - r))]
    for k11, k12, k21, k22 in itertools.product(reps, repeat=4):
        h = [[1 + k11, k12], [k21, 1 + k22]]
        # minus part of (1 + tau X) h is tau X h: need X h in p^r M(O_F)
        ok = True
        for i in range(2):
            for j in range(2):
                t = Xm[i][0] * h[0][j] + Xm[i][1] * h[1][j]
                if t != 0 and val_p(t, p) < r:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        dh = h[0][0] * h[1][1] - h[0][1] * h[1][0]
        total = total + eta_prime(det1X * ext.scalar(dh)) * cellvol
    return c2 * total


def _one_plus_tau(ext, Xm):
    """1 + tau X over E for a 2x2 matrix X over F."""
    return mat([[ext.scalar(int(i == j), Xm[i][j]) for j in range(2)]
                for i in range(2)])


def f_psi_natural_direct(ext, psi, eta_prime, phi_data, r, X):
    """Independent enumeration of the degenerate-Whittaker descent at one
    point: double integral over u in p^m O_E (the dagger support) and over
    the split group, of phi(u) f2(n(u)(1+X)h) eta'(det((1+X)h))."""
    p = ext.F.p
    q = Fraction(p)
    m = phi_data.m
    X = tuple(Fraction(t) for t in X)
    vX = min([val_p(t, p) for t in X if t != 0] or [0])
    Lu = r + max(0, -min(0, vX))
    c2 = _inv_vol(matrix_space_e(ext, psi, 2), (r,) * 8)
    uvol = e_space(ext, psi, 1).vol_lattice((Lu, Lu))
    Xm = [[X[0], X[1]], [X[2], X[3]]]
    one_plus = _one_plus_tau(ext, Xm)
    det1X = det(QuadExtRing(ext), one_plus)
    total = CyclotomicScalar.zero()
    ureps = [Fraction(j * p ** m) for j in range(p ** (Lu - m))]
    for up, um in itertools.product(ureps, repeat=2):
        phival = phi_data.packet.evaluate((up, um))
        if phival.is_zero():
            continue
        nu = mat([[ext.one(), ext.scalar(up, um)], [ext.zero(), ext.one()]])
        A = mat_mul(nu, one_plus)
        P0 = [[A[i][j].x for j in range(2)] for i in range(2)]
        Q0 = [[A[i][j].y for j in range(2)] for i in range(2)]
        dP = P0[0][0] * P0[1][1] - P0[0][1] * P0[1][0]
        if dP == 0:
            raise NotInDomain("degenerate plus part in the enumeration")
        Pinv = [[P0[1][1] / dP, -P0[0][1] / dP], [-P0[1][0] / dP, P0[0][0] / dP]]
        QP = [[sum(Q0[i][t] * Pinv[t][j] for t in range(2)) for j in range(2)]
              for i in range(2)]
        vQP = min([val_p(t, p) for row in QP for t in row if t != 0] or [0])
        Lh = max(r + 1, r - min(0, vQP))
        hreps = [Fraction(j * p ** r) for j in range(p ** (Lh - r))]
        hvol = f_space(ext.F, psi, 4).vol_lattice((Lh,) * 4)
        # additive volume scaling of h = Pinv (1 + kcell) and d*h weight
        vdP = val_p(dP, p)
        jac = q ** (2 * vdP)  # |det Pinv|^2 = q^(2 vdP) as additive scaling
        for k11, k12, k21, k22 in itertools.product(hreps, repeat=4):
            one_k = [[1 + k11, k12], [k21, 1 + k22]]
            h = [[sum(Pinv[i][t] * one_k[t][j] for t in range(2))
                  for j in range(2)] for i in range(2)]
            dh = h[0][0] * h[1][1] - h[0][1] * h[1][0]
            Mmin = [[sum(Q0[i][t] * h[t][j] for t in range(2)) for j in range(2)]
                    for i in range(2)]
            if any(t != 0 and val_p(t, p) < r for row in Mmin for t in row):
                continue
            weight = q ** (2 * val_p(dh, p))  # 1 / |det h|^2
            total = total + (
                phival
                * eta_prime(det1X * ext.scalar(dh))  # eta'(det((1 + tau X) h))
                * hvol
                * CyclotomicScalar.from_rational(jac * weight)
                * uvol
            )
    return c2 * total


def shell_sum(value, eta, v, lam, p):
    """q^-lam * sum of value(a) eta(a) over a = u p^v, u in [1, p^lam)
    prime to p: the integral of value * eta over the shell v(a) = v
    against the unnormalized d*a (shell measure 1 - 1/q), exact when
    value * eta is constant on the cosets a(1 + p^lam O).  Cells where
    value vanishes are skipped."""
    q = Fraction(p)
    pv = q ** v
    total = CyclotomicScalar.zero()
    for u in range(1, p ** lam):
        if u % p == 0:
            continue
        a = u * pv
        val = value(a)
        if val.is_zero():
            continue
        total = total + val * eta(a)
    return total * q ** (-lam)


def _shell_character_sum(packet, eta, shell, p, d):
    """sum over v(a) = shell of packet(-a) eta(a) d*a by unit-coset
    enumeration (unnormalized d*a, so the shell has measure 1 - 1/q)."""
    lam = max(1, eta.conductor_exponent())
    for _, (c0,), (a0,), (f0,) in packet.terms:
        lam = max(lam, a0 - shell)
        if f0 != 0:
            lam = max(lam, -d - val_p(f0, p) - shell - 1)
    return shell_sum(lambda a: packet.evaluate((-a,)), eta, shell, lam, p)


def dagger_mu_closed_form(ext, psi, eta, phi_data):
    """The regular-nilpotent germ constant attached to a dagger scalar, in
    closed form: c(Psi+) times the shell character sum of the Fourier
    transform of the minus factor,

        mu = c(Psi+) * sum_{v(a) = s0} phihat-(-a) eta(a) d*a,

    with s0 the dagger shell valuation."""
    _require_quadratic(eta)
    m = phi_data.m
    s0 = shell_valuation(ext, psi, m)
    hat = _phi_minus_packet(phi_data).fourier()
    vdelta = val_p(ext.delta, ext.F.p)
    total = _shell_character_sum(
        hat, eta, s0, ext.F.p, psi.d + vdelta
    )
    return c_psi_plus(ext, psi, m) * total


def cyc_terms(x):
    """A CyclotomicScalar's value as the dict {k/n: c/den} of Fraction
    exponents in [0, 1) and nonzero Fraction coefficients, in the order of
    its keys: the form `FractionCyclotomic` and `trace_rational` hold."""
    return {Fraction(k, x.n): Fraction(c, x.den) for k, c in x.coeffs.items()}


def monic_view(x):
    """A QRational's N and D over lc(D), as lists of Fraction coefficients:
    the form `FractionQRational`'s `num.c` and `den.c` hold."""
    lc = x.D[-1]
    return [Fraction(c, lc) for c in x.N], [Fraction(c, lc) for c in x.D]


def qrational(N, D):
    """The QRational N/D for int coefficient sequences, little-endian, D
    nonzero."""
    N, D = _trim(N), _trim(D)
    if not D:
        raise ZeroDivisionError("zero denominator")
    if not N:
        D = (1,)
    elif len(N) > 1 and len(D) > 1:
        g = _gcd(N, D)
        if len(g) > 1:
            N, D = _quo(N, g), _quo(D, g)
    return _lowest(N, D)


def result_difference(a, b):
    """a - b for OrbitalResults: the pairs of a and the negated pairs of b,
    merged per R_i by the constructor, which drops zero coefficients."""
    return OrbitalResult(list(a.pairs) + [(-c, qr) for c, qr in b.pairs],
                         a.metadata)


def _poly_divmod_int(num, den):
    # Exact division of integer polynomials (den monic up to leading unit);
    # coefficient lists are little-endian.
    num = list(num)
    lead = den[-1]
    q = [0] * (max(len(num) - len(den) + 1, 0))
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1]
        if c % lead != 0:
            raise ArithmeticError("non-exact polynomial division")
        c //= lead
        q[i] = c
        if c:
            for j, d in enumerate(den):
                num[i + j] -= c * d
    while num and num[-1] == 0:
        num.pop()
    return q, num


@lru_cache(maxsize=None)
def cyclotomic_poly(n):
    """Integer coefficients (little-endian) of the n-th cyclotomic polynomial."""
    if n == 1:
        return (-1, 1)
    num = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            q, r = _poly_divmod_int(num, list(cyclotomic_poly(d)))
            if r:
                raise ArithmeticError("cyclotomic division left a remainder")
            num = q
    return tuple(num)


def _primes(n):
    """The prime factors of n, by trial division."""
    out, d = [], 2
    while d * d <= n:
        if not n % d:
            out.append(d)
            while not n % d:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


def _phi(n):
    for p in _primes(n):
        n = n // p * (p - 1)
    return n


@lru_cache(maxsize=4096)
def _ramanujan(n, g):
    """The trace from Q(zeta_n) to Q of e(g/n), g a divisor of n: the
    Ramanujan sum mu(n/g) phi(n) / phi(n/g)."""
    m = n // g
    primes = _primes(m)
    if any(not m % (p * p) for p in primes):
        return 0
    return (-1) ** len(primes) * _phi(n) // _phi(m)


def trace_rational(terms):
    """The value of the sum of c e(r) over terms {r: c} (Fraction keys and
    values) as a Fraction, or None if it is irrational.

    For y in Q(zeta_n), Tr(y conj(y)) is the sum of |sigma(y)|^2 over the
    embeddings sigma, since complex conjugation commutes with each: it is 0
    exactly when y is.  x is rational exactly when y = x - Tr(x) / phi(n)
    is 0.  Neither step reduces by a cyclotomic polynomial or splits n.
    """
    n = lcm(1, *[r.denominator for r in terms])
    den = lcm(1, *[c.denominator for c in terms.values()])
    x = {r.numerator * (n // r.denominator): int(c * den)
         for r, c in terms.items()}

    def trace(j):
        return _ramanujan(n, gcd(j, n))

    phi = _phi(n)
    t = sum(c * trace(k) for k, c in x.items())
    # phi(n) y, on ints
    y = {k: c * phi for k, c in x.items()}
    y[0] = y.get(0, 0) - t
    norm = sum(a * b * trace(k1 - k2)
               for k1, a in y.items() for k2, b in y.items())
    assert norm >= 0
    return Fraction(t, phi * den) if norm == 0 else None


class FractionCyclotomic:
    """A sum of c e(r) held as a dict {r: c} with Fraction keys r in [0, 1)
    and nonzero Fraction values, built from a dict already in that form."""

    def __init__(self, terms):
        self.terms = terms

    def __add__(self, other):
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        t = dict(a)
        for r, c in b.items():
            s = t.get(r, 0) + c
            if s:
                t[r] = s
            else:
                del t[r]
        return FractionCyclotomic(t)

    def __neg__(self):
        return FractionCyclotomic({r: -c for r, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        t = {}
        for r1, c1 in a.items():
            for r2, c2 in b.items():
                r = (r1 + r2) % 1
                t[r] = t.get(r, 0) + c1 * c2
        return FractionCyclotomic({r: c for r, c in t.items() if c})

    def conj(self):
        return FractionCyclotomic({(1 - r if r else r): c
                                   for r, c in self.terms.items()})

    def _reduced(self):
        """(n, remainder) in the power basis of Q(zeta_n), n the lcm of
        the key denominators."""
        if not self.terms:
            return 1, []
        n = 1
        for r in self.terms:
            n = n * r.denominator // gcd(n, r.denominator)
        vec = [Fraction(0)] * n
        for r, c in self.terms.items():
            vec[int(r * n)] += c
        phi = cyclotomic_poly(n)
        deg = len(phi) - 1
        for i in range(n - 1, deg - 1, -1):
            c = vec[i]
            if c:
                for j in range(len(phi)):
                    if phi[j]:
                        vec[i - deg + j] -= c * phi[j]
        rem = vec[:deg]
        while rem and not rem[-1]:
            rem.pop()
        return n, rem

    def as_rational(self):
        _, rem = self._reduced()
        if len(rem) > 1:
            return None
        return rem[0] if rem else Fraction(0)

    def __repr__(self):
        if not self.terms:
            return "Cyc(0)"
        return "Cyc(" + " + ".join(
            f"{self.terms[r]}*e({r})" if r else f"{self.terms[r]}"
            for r in sorted(self.terms)) + ")"


class FractionPoly:
    """Dense polynomial over Q, little-endian Fraction coefficients."""

    __slots__ = ("c",)

    def __init__(self, coeffs=()):
        c = [Fraction(x) for x in coeffs]
        while c and not c[-1]:
            c.pop()
        self.c = c

    def degree(self):
        return len(self.c) - 1  # -1 for the zero polynomial

    def __repr__(self):
        # as QRational shows a side: the zero coefficients left out
        if not self.c:
            return "Poly(0)"
        return "Poly(" + " + ".join(
            f"{x}*T^{i}" if i else f"{x}" for i, x in enumerate(self.c) if x
        ) + ")"

    def is_zero(self):
        return not self.c

    def __add__(self, other):
        n = max(len(self.c), len(other.c))
        return FractionPoly(
            (self.c[i] if i < len(self.c) else 0)
            + (other.c[i] if i < len(other.c) else 0) for i in range(n))

    def __neg__(self):
        return FractionPoly(-x for x in self.c)

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return FractionPoly()
        out = [Fraction(0)] * (len(self.c) + len(other.c) - 1)
        for i, a in enumerate(self.c):
            for j, b in enumerate(other.c):
                out[i + j] += a * b
        return FractionPoly(out)

    def scale(self, k):
        return FractionPoly(x * k for x in self.c)

    def divmod(self, other):
        r = list(self.c)
        d = other.c
        q = [Fraction(0)] * max(len(r) - len(d) + 1, 0)
        for i in range(len(r) - len(d), -1, -1):
            coef = r[i + len(d) - 1] / d[-1]
            q[i] = coef
            for j in range(len(d)):
                r[i + j] -= coef * d[j]
        return FractionPoly(q), FractionPoly(r)

    def gcd(self, other):
        """The monic gcd, by Euclid's algorithm over Q."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return a.scale(1 / a.c[-1]) if a.c else a

    def derivative(self):
        return FractionPoly([i * x for i, x in enumerate(self.c)][1:])

    def eval(self, t):
        out = Fraction(0)
        for x in reversed(self.c):
            out = out * t + x
        return out

    def eval_mod_quadratic(self, s0):
        """Evaluate at a root of T^2 = s0: returns (a, b) meaning a + b*T."""
        a, b = Fraction(0), Fraction(0)
        for i, x in enumerate(self.c):
            if i % 2 == 0:
                a += x * s0 ** (i // 2)
            else:
                b += x * s0 ** ((i - 1) // 2)
        return a, b


class FractionQRational:
    """num/den with den monic and gcd(num, den) = 1, both FractionPolys;
    every operation reduces by the gcd over Q.  Its `num.c` and `den.c`
    are what `QRational` prints, and its repr is `QRational`'s."""

    def __init__(self, num, den=None):
        den = den if den is not None else FractionPoly([1])
        if num.is_zero():
            num, den = num, FractionPoly([1])
        else:
            g = num.gcd(den)
            num, den = num.divmod(g)[0], den.divmod(g)[0]
            lead = den.c[-1]
            num, den = num.scale(1 / lead), den.scale(1 / lead)
        self.num, self.den = num, den

    def __repr__(self):
        return f"QRational({self.num!r} / {self.den!r})"

    @staticmethod
    def const(x):
        return FractionQRational(FractionPoly([x]))

    @staticmethod
    def monomial(coeff, k):
        """coeff * T^k, any integer k."""
        if k >= 0:
            return FractionQRational(FractionPoly([0] * k + [coeff]))
        return FractionQRational(FractionPoly([coeff]),
                                 FractionPoly([0] * -k + [1]))

    def is_zero(self):
        return self.num.is_zero()

    def __add__(self, other):
        return FractionQRational(self.num * other.den + other.num * self.den,
                                 self.den * other.den)

    def __neg__(self):
        return FractionQRational(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return FractionQRational(self.num * other.num, self.den * other.den)

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return FractionQRational(self.den, self.num)

    def __truediv__(self, other):
        return self * other.inverse()

    def __eq__(self, other):
        return self.num.c == other.num.c and self.den.c == other.den.c

    def evaluate(self, t):
        t = Fraction(t)
        d = self.den.eval(t)
        if d == 0:
            order, den = 0, self.den
            while den.eval(t) == 0:
                order += 1
                den = den.derivative()
            raise PoleAtEvaluationPoint(f"pole of order {order} at T={t}")
        return self.num.eval(t) / d

    def substitute_reciprocal(self):
        """R(1/T): both sides reversed at the common degree."""
        n = max(self.num.degree(), self.den.degree(), 0)
        return FractionQRational(
            FractionPoly(reversed(self.num.c + [0] * (n - self.num.degree()))),
            FractionPoly(reversed(self.den.c + [0] * (n - self.den.degree()))))

    def pole_order_at_sqrt(self, s0):
        """Order of the pole at T = +-sqrt(s0) for a non-square s0, by
        reduction mod T^2 - s0 (both signs have the same order)."""
        s0 = Fraction(s0)
        den, order = self.den, 0
        while True:
            a, b = den.eval_mod_quadratic(s0)
            if a or b:
                return order
            order += 1
            den = den.derivative()

    def real_pole_count(self, a, b):
        return fraction_sturm_root_count(self.den, Fraction(a), Fraction(b))


def fraction_sturm_root_count(poly, a, b):
    """Distinct real roots of poly in (a, b], by a Sturm chain over Q."""
    if poly.degree() <= 0:
        return 0
    g = poly.gcd(poly.derivative())
    poly = poly.divmod(g)[0]
    chain = [poly, poly.derivative()]
    while chain[-1].degree() > 0:
        rem = chain[-2].divmod(chain[-1])[1]
        if rem.is_zero():
            break
        chain.append(-rem)

    def sign_changes(t):
        signs = [v > 0 for v in (f.eval(t) for f in chain) if v]
        return sum(x != y for x, y in zip(signs, signs[1:]))

    return sign_changes(a) - sign_changes(b)


def passing_cells(X, f, lo, M, det_window):
    """The cells J in [0, p^e)^4, e = M - lo, of one pass on which some
    term of f passes its coset test, with v(det h) = 2 lo + v(det J) in
    det_window.  Yields (J, det J, v(det J), hits), hits the list of
    (term index, (n, k)) of the passing terms in term order, with psi's
    phase n / p^k at the cell.  The integer model and the pruning lemma
    are those of `cells.cell_counts`."""
    p = f.space.F.p
    e = M - lo
    L = abs(lo)
    D = lcm(*(x.denominator for x in X))
    Xi = [x.numerator * (D // x.denominator) for x in X]
    a00, a01, b0, a10, a11, b1, c0, c1, x22 = Xi
    pL = p ** L
    sb = p ** (lo + L)  # scale of the h X column
    sc = p ** (L - lo)  # scale of the X diag(h)^(-1) row
    vD, uD = strip_p(D, p)
    # det(J) valuations that put v(det h) = 2 lo + v(det J) in the window,
    # each with the precompiled coset tests of every term: (t, cd_t,
    # cn_t D p^L, p^k), keeping the coordinates with k > 0
    tests = {}
    for w in det_window:
        vj = w - 2 * lo
        compiled = []
        for _, C, exps, _ in f.rows:
            checks = []
            for t, (cn, cd) in enumerate(C):
                k = exps[t] + val_p(cd, p) + vD + vj + L
                if k > 0:
                    checks.append((t, cd, cn * D * pL, p ** k))
            compiled.append(checks)
        tests[vj] = compiled
    # psi's phase of each term: its nonzero (j, g_j) pairs, v(G) + v(D) +
    # L - d and the p-free part of G D; None for a term with no frequency
    sp = f.space
    phases = []
    for _, _, _, freq in f.rows:
        g = {}
        for (n, d), w, j in zip(freq, sp.weights, sp.pairing):
            if n:
                n, d = w.numerator * n, w.denominator * d
                h = gcd(n, d)
                g[j] = n // h, d // h
        if not g:
            phases.append(None)
            continue
        G = lcm(*(d for _, d in g.values()))
        vG, uG = strip_p(G, p)
        phases.append(([(j, n * (G // d)) for j, (n, d) in g.items()],
                       vG + vD + L - sp.psi.d, uG * uD))

    def coords(j11, j12, j21, j22, dJ):
        # N_t for Y = diag(J,1) Xi diag(adj J,1) scaled to Den = D dJ p^L
        r00 = j11 * a00 + j12 * a10
        r01 = j11 * a01 + j12 * a11
        r10 = j21 * a00 + j22 * a10
        r11 = j21 * a01 + j22 * a11
        return (
            pL * (r00 * j22 - r01 * j21),
            pL * (r01 * j11 - r00 * j12),
            sb * dJ * (j11 * b0 + j12 * b1),
            pL * (r10 * j22 - r11 * j21),
            pL * (r11 * j11 - r10 * j12),
            sb * dJ * (j21 * b0 + j22 * b1),
            sc * (c0 * j22 - c1 * j21),
            sc * (c1 * j11 - c0 * j12),
            pL * dJ * x22,
        )

    def phase(t, N, vj, u):
        ph = phases[t]
        if ph is None:
            return (0, 0)
        g, k0, uGD = ph
        S = sum(gj * N[j] for j, gj in g)
        k = k0 + vj
        if not S or k <= 0:
            return (0, 0)
        pk = p ** k
        return S * pow(uGD * u, -1, pk) % pk, k

    stack = [(0, (0, 0, 0, 0))]  # (level l, J mod p^l) still to refine
    while stack:
        l, (r11, r12, r21, r22) = stack.pop()
        step = p ** l
        l += 1
        pl = step * p
        for d11, d12, d21, d22 in itertools.product(range(0, pl, step),
                                                     repeat=4):
            j11, j12, j21, j22 = r11 + d11, r12 + d12, r21 + d21, r22 + d22
            dJ = j11 * j22 - j12 * j21
            if l < e:
                dl = dJ % pl
                if dl:
                    vj = val_p(dl, p)
                    vjs = (vj,) if vj in tests else ()
                else:
                    vjs = [vj for vj in tests if vj >= l]
                if not vjs:
                    continue
                N = coords(j11, j12, j21, j22, dJ)
                if any(all((N[t] * cd - cnD * dJ) % (m if m < pl else pl) == 0
                           for t, cd, cnD, m in checks)
                       for vj in vjs for checks in tests[vj]):
                    stack.append((l, (j11, j12, j21, j22)))
                continue
            if dJ == 0:
                # singular J: v(det J) is past the window by the choice of M
                continue
            vj, u = strip_p(dJ, p)
            compiled = tests.get(vj)
            if compiled is None:
                continue
            N = coords(j11, j12, j21, j22, dJ)
            hits = [(t, phase(t, N, vj, u))
                    for t, checks in enumerate(compiled)
                    if all((N[s] * cd - cnD * dJ) % m == 0
                           for s, cd, cnD, m in checks)]
            if hits:
                yield (j11, j12, j21, j22), dJ, vj, hits


def cell_counts_of(X, f, lo, M, det_window):
    """The counts per (v(det J), u0, term, n, k) of the cells that
    `passing_cells` yields, a cell with several passing terms counted
    only when its value is not zero."""
    p = f.space.F.p
    counts = Counter()
    for _, dJ, vj, hits in passing_cells(X, f, lo, M, det_window):
        if len(hits) > 1 and cell_value(f, hits).is_zero():
            continue
        u0 = dJ // p ** vj % p
        for t, (n, k) in hits:
            counts[vj, u0, t, n, k] += 1
    return counts


def _perm_sign(perm):
    """The sign of a permutation, from the parity of its even cycles."""
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        clen = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


def charpoly_plus_leibniz(R, A):
    """Coefficients (c_0=1, c_1, ..., c_n) of det(T*1 + A) in descending
    powers of T, computed by Leibniz expansion over R[T]."""
    n = len(A)
    zero, one = R.zero(), R.one()

    def padd(p, q):
        k = max(len(p), len(q))
        return [
            (p[i] if i < len(p) else zero) + (q[i] if i < len(q) else zero)
            for i in range(k)
        ]

    def pmul(p, q):
        out = [zero] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                out[i + j] = out[i + j] + a * b
        return out

    total = [zero] * (n + 1)
    for perm in itertools.permutations(range(n)):
        term = [one]
        for i in range(n):
            entry = A[i][perm[i]]
            if perm[i] == i:
                term = pmul(term, [entry, one])  # entry + T
            else:
                term = pmul(term, [entry])
        if _perm_sign(perm) < 0:
            term = [-x for x in term]
        total = padd(total, term)
    # total is little-endian in T of degree n; return descending
    total = total + [zero] * (n + 1 - len(total))
    return tuple(reversed(total))


def _minor(A, i, j):
    return [row[:j] + row[j + 1:] for k, row in enumerate(A) if k != i]


def det_laplace(R, A):
    """det(A) by cofactor expansion along the first row; 1 when A is
    0 x 0."""
    A = [list(row) for row in A]
    if not A:
        return R.one()
    total = R.zero()
    for j, x in enumerate(A[0]):
        term = x * det_laplace(R, _minor(A, 0, j))
        total = total + term if j % 2 == 0 else total - term
    return total


def adjugate(R, A):
    """adj(A): the transpose of the cofactor matrix, so A adj(A) =
    det(A) 1 over any commutative ring."""
    A = [list(row) for row in A]
    n = len(A)
    cof = [[det_laplace(R, _minor(A, i, j)) for j in range(n)]
           for i in range(n)]
    return mat([[cof[j][i] if (i + j) % 2 == 0 else -cof[j][i]
                 for j in range(n)] for i in range(n)])


def conjugate_embedded(R, h, X, h_inv):
    """diag(h, 1) X diag(h, 1)^-1 as two full (n+1) x (n+1) products, with
    h_inv the inverse of h."""
    m = len(X)

    def embed(g):
        return mat([[g[i][j] if i < m - 1 and j < m - 1
                     else (R.one() if i == j else R.zero())
                     for j in range(m)] for i in range(m)])

    return mat_mul(mat_mul(embed(h), X), embed(h_inv))
