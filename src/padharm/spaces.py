"""Exact Schwartz-Bruhat calculus on finite-dimensional p-adic spaces.

A Space is a finite list of F-coordinates with a diagonal-by-permutation
symmetric pairing <x, y> = sum_i c_i x_i y_{pi(i)} (pi an involution,
c_{pi(i)} = c_i); E-coordinates contribute two F-coordinates of weights
(1, delta) because psi_E(zw) = psi(xx' + delta*yy').  A WavePacket is a
finite sum of terms coeff * 1_{x0 + L} * psi(<xi0, .>) with L a product
lattice given by per-coordinate scale exponents.  This family is closed
under the Fourier transform with self-dual measure, pointwise products,
translations, diagonal substitutions, and additive convolution -- all
exactly, with coefficients in the cyclotomic ring.

Integer kernel.  A packet's terms hold `Fraction` centers and
frequencies, and the hot paths work on their numerators and
denominators instead of on `Fraction` arithmetic:
- `_mod_lattice(num, den, a, p)` reads a coordinate already in lowest
  terms (den > 0) and returns its lattice representative as a pair
  (m, p^k) that is again in lowest terms (k = 0, or p divides neither m
  nor num).  `_canonicalize` uses these pairs as the sort key, and
  builds a `Fraction` only for a coordinate whose pair differs from its
  input; an unmoved coordinate is stored as the same object.
- `Space.pair` sums numerators over products of denominators and builds
  one `Fraction` at the end; `_coset_offsets` builds one per offset.
- `AdditiveCharacter.phase` (characters.py) and the monomial branch of
  `CyclotomicScalar.__mul__` (cyclotomic.py) follow the same rule.
Every `Fraction` is built through its public constructor, which
normalizes, so no int pair is trusted to be coprime where a value is
stored.  The coprimality above serves the comparisons and the sort key:
a reduced pair is the (numerator, denominator) of the stored value.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from operator import itemgetter

from .cyclotomic import CyclotomicScalar, sqrt_rational_power
from .errors import ScaleExceeded, SchemaError
from .padic import strip_p, val_p

DEFAULT_TERM_BUDGET = 300000

_by_sort_key = itemgetter(0)


class Space:
    __slots__ = ("F", "psi", "weights", "pairing", "_wv")

    def __init__(self, F, psi, weights, pairing=None):
        self.F = F
        self.psi = psi
        self.weights = tuple(Fraction(c) for c in weights)
        n = len(self.weights)
        self.pairing = tuple(pairing) if pairing is not None else tuple(range(n))
        if sorted(self.pairing) != list(range(n)):
            raise SchemaError("pairing is not a permutation")
        for i, j in enumerate(self.pairing):
            if self.pairing[j] != i or self.weights[j] != self.weights[i]:
                raise SchemaError("pairing must be a weight-preserving involution")
        if any(c == 0 for c in self.weights):
            raise SchemaError("pairing weights must be nonzero")
        self._wv = tuple(val_p(c, F.p) for c in self.weights)

    @property
    def dim(self):
        return len(self.weights)

    def __eq__(self, other):
        return (
            isinstance(other, Space)
            and self.F == other.F
            and self.psi == other.psi
            and self.weights == other.weights
            and self.pairing == other.pairing
        )

    def __hash__(self):
        return hash((self.F, self.psi, self.weights, self.pairing))

    def pair(self, x, y):
        # the sum n / d of c x_i y_j on numerators and denominators; d
        # grows only when a term's denominator differs from it
        n, d = 0, 1
        for c, xi, j in zip(self.weights, x, self.pairing):
            if xi:
                yj = y[j]
                if yj:
                    if not isinstance(xi, Fraction):
                        xi = Fraction(xi)
                    if not isinstance(yj, Fraction):
                        yj = Fraction(yj)
                    tn = c.numerator * xi.numerator * yj.numerator
                    td = c.denominator * xi.denominator * yj.denominator
                    if td == d:
                        n += tn
                    else:
                        n, d = n * td + tn * d, d * td
        return Fraction(n, d)

    def dual_exps(self, exps):
        d = self.psi.d
        return tuple(
            -d - self._wv[i] - exps[self.pairing[i]] for i in range(self.dim)
        )

    def vol_lattice(self, exps):
        """Self-dual volume of the product lattice prod p^{a_i} O."""
        d = self.psi.d
        k = -2 * sum(exps) - sum(d + w for w in self._wv)
        return sqrt_rational_power(self.F.p, k)

    def concat(self, other):
        if self.F != other.F or self.psi != other.psi:
            raise SchemaError("cannot concatenate spaces over different fields")
        n = self.dim
        return Space(
            self.F,
            self.psi,
            self.weights + other.weights,
            self.pairing + tuple(n + j for j in other.pairing),
        )


# -- space constructors ------------------------------------------------------


def f_space(F, psi, dim):
    return Space(F, psi, (Fraction(1),) * dim)


def e_space(ext, psi, dim):
    """E^dim: coordinates come in (plus, minus) pairs with weights (1, delta)."""
    return Space(ext.F, psi, (Fraction(1), ext.delta) * dim)


def e_minus_space(ext, psi, dim):
    return Space(ext.F, psi, (ext.delta,) * dim)


def transposition(k):
    """The coordinate permutation X -> X^t of a k x k matrix stored row by
    row: entry (i, j) at i*k + j goes to (j, i)."""
    return tuple((t % k) * k + t // k for t in range(k * k))


def matrix_space_f(F, psi, k):
    """M_k(F) with pairing tr(XY): couples (i,j) with (j,i)."""
    return Space(F, psi, (Fraction(1),) * (k * k), transposition(k))


def matrix_space_e(ext, psi, k):
    """M_k(E) with pairing psi_E(tr(XY)): per entry (plus, minus) weight
    (1, delta), transposition on both parts."""
    pairing = tuple(2 * t + h for t in transposition(k) for h in (0, 1))
    return Space(ext.F, psi, (Fraction(1), ext.delta) * (k * k), pairing)


def s_space(ext, psi, k):
    """The -1 eigenspace in M_k(E) (entries tau*y): weight-delta
    coordinates with transposition pairing."""
    return Space(ext.F, psi, (ext.delta,) * (k * k), transposition(k))


# -- wave packets -------------------------------------------------------------


def _mod_lattice(num, den, a, p):
    """(m, p^k) for the representative m / p^k of num / den modulo
    p^a Z_(p): the unique such number in [0, p^a) with num / den - m / p^k
    in p^a Z_(p).  num / den must be in lowest terms with den > 0.

    The p-prime part u of den is inverted modulo a power of p, so 1/2 and
    0 are the same class modulo Z_(3).  The pair is in lowest terms: k is
    the power of p in den (p then does not divide num, nor m) or k = 0.
    A den prime to p costs one modulo; any other is split by `strip_p`.
    """
    if den % p:
        k, u = 0, den
    else:
        k, u = strip_p(den, p)
    # num / den lies in p^-k Z_(p); the class lives in p^-k Z_(p) / p^a Z_(p)
    if not num or k + a <= 0:
        return 0, 1
    mod = p ** (k + a)
    if u == 1:
        return num % mod, den
    return num * pow(u, -1, mod) % mod, den // u


def _coset_offsets(x, a, count, p):
    """x + j p^a for j in range(count), one Fraction each."""
    n, d = x.numerator, x.denominator
    if a >= 0:
        step = p ** a * d
    else:
        step = d
        n *= p ** -a
        d *= p ** -a
    return [Fraction(n + j * step, d) for j in range(count)]


class WavePacket:
    __slots__ = ("space", "terms")

    def __init__(self, space, terms):
        self.space = space
        self.terms = self._canonicalize(terms)

    def _canonicalize(self, terms):
        sp = self.space
        p = sp.F.p
        dim = sp.dim
        rows = []
        for coeff, center, exps, freq in terms:
            if len(center) != dim or len(exps) != dim or len(freq) != dim:
                raise SchemaError("term dimension mismatch")
            if not isinstance(coeff, CyclotomicScalar):
                coeff = CyclotomicScalar.from_rational(coeff)
            exps = tuple(exps)
            # each coordinate's numerator and denominator are read once;
            # the reduced pairs (n, d) are in lowest terms, so they are
            # the sort key, and a Fraction is built only where one moved
            newc, cints = [], []
            for c, a in zip(center, exps):
                if not isinstance(c, Fraction):
                    c = Fraction(c)
                cn, cd = c.numerator, c.denominator
                n, d = _mod_lattice(cn, cd, a, p)
                cints.append((n, d))
                newc.append(c if n == cn and d == cd else Fraction(n, d))
            newf, fints = [], []
            lam = None
            for i, (f, b) in enumerate(zip(freq, sp.dual_exps(exps))):
                if not isinstance(f, Fraction):
                    f = Fraction(f)
                fn, fd = f.numerator, f.denominator
                n, d = _mod_lattice(fn, fd, b, p)
                fints.append((n, d))
                if n == fn and d == fd:
                    newf.append(f)
                    continue
                newf.append(Fraction(n, d))
                # the frequency moved by lam_i in the dual lattice: psi of
                # <lam, x> is constant on the coset, its value at the center
                if lam is None:
                    lam = [0] * dim
                lam[i] = Fraction(fn * d - n * fd, fd * d)
            if lam is not None:
                coeff = coeff * sp.psi(sp.pair(lam, center))
            rows.append(((exps, tuple(cints), tuple(fints)),
                         (tuple(newc), exps, tuple(newf)), coeff))
        # equal sort keys are equal terms: merge each run of them
        rows.sort(key=_by_sort_key)
        out = []
        for _, run in itertools.groupby(rows, key=_by_sort_key):
            total = CyclotomicScalar.zero()
            for _, key, coeff in run:
                total = total + coeff
            if not total.is_zero():
                out.append((total, *key))
        if len(out) > DEFAULT_TERM_BUDGET:
            raise ScaleExceeded(f"wave packet with {len(out)} terms")
        return tuple(out)

    # -- basic constructors --------------------------------------------------
    @staticmethod
    def indicator(space, exps, center=None, freq=None):
        n = space.dim
        center = tuple(center) if center is not None else (Fraction(0),) * n
        freq = tuple(freq) if freq is not None else (Fraction(0),) * n
        if isinstance(exps, int):
            exps = (exps,) * n
        return WavePacket(space, [(1, center, tuple(exps), freq)])

    # -- pointwise structure ---------------------------------------------------
    def evaluate(self, x):
        sp = self.space
        p = sp.F.p
        total = CyclotomicScalar.zero()
        x = tuple(Fraction(t) for t in x)
        for coeff, center, exps, freq in self.terms:
            ok = True
            for xi, ci, ai in zip(x, center, exps):
                diff = xi - ci
                if diff != 0 and val_p(diff, p) < ai:
                    ok = False
                    break
            if ok:
                total = total + coeff * sp.psi(sp.pair(freq, x))
        return total

    def __add__(self, other):
        if not isinstance(other, WavePacket) or other.space != self.space:
            return NotImplemented
        return WavePacket(self.space, self.terms + other.terms)

    def scale(self, c):
        if not isinstance(c, CyclotomicScalar):
            c = CyclotomicScalar.from_rational(c)
        return WavePacket(
            self.space, [(c * t[0], t[1], t[2], t[3]) for t in self.terms]
        )

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        if not isinstance(other, WavePacket) or other.space != self.space:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        """Pointwise product."""
        if not isinstance(other, WavePacket) or other.space != self.space:
            return NotImplemented
        p = self.space.F.p
        out = []
        for c1, x1, a1, f1 in self.terms:
            for c2, x2, a2, f2 in other.terms:
                ok = True
                nc, na = [], []
                for t in range(self.space.dim):
                    a = max(a1[t], a2[t])
                    diff = x1[t] - x2[t]
                    if diff != 0 and val_p(diff, p) < min(a1[t], a2[t]):
                        ok = False
                        break
                    na.append(a)
                    nc.append(x1[t] if a1[t] >= a2[t] else x2[t])
                if ok:
                    nf = tuple(u + v for u, v in zip(f1, f2))
                    out.append((c1 * c2, tuple(nc), tuple(na), nf))
        return WavePacket(self.space, out)

    def reflect(self):
        """x -> f(-x)."""
        return WavePacket(
            self.space,
            [
                (c, tuple(-t for t in x0), a, tuple(-t for t in f0))
                for c, x0, a, f0 in self.terms
            ],
        )

    def shift(self, t):
        """g(x) = f(x - t)."""
        t = tuple(Fraction(u) for u in t)
        sp = self.space
        out = []
        for c, x0, a, f0 in self.terms:
            phase = sp.psi(-sp.pair(f0, t))
            out.append((c * phase, tuple(x + u for x, u in zip(x0, t)), a, f0))
        return WavePacket(sp, out)

    # -- integral calculus -----------------------------------------------------
    def fourier(self):
        """Self-dual Fourier transform against psi(<., .>)."""
        sp = self.space
        out = []
        for c, x0, a, f0 in self.terms:
            vol = sp.vol_lattice(a)
            phase = sp.psi(sp.pair(f0, x0))
            out.append(
                (c * vol * phase, tuple(-t for t in f0), sp.dual_exps(a), x0)
            )
        return WavePacket(sp, out)

    def integral(self):
        """Integral against the self-dual measure."""
        return self.fourier().evaluate((Fraction(0),) * self.space.dim)

    def convolve_add(self, other):
        """Additive convolution (f * g)(x) = int f(y) g(x - y) dy."""
        prod = self.fourier() * other.fourier()
        return prod.fourier().reflect()

    # -- structure -----------------------------------------------------------
    def refined(self, exps):
        """The same function written over the finer product lattice p^exps."""
        sp = self.space
        p = sp.F.p
        out = []
        total = 0
        for c, x0, a, f0 in self.terms:
            deltas = [max(e - ai, 0) for e, ai in zip(exps, a)]
            count = p ** sum(deltas)
            total += count
            if total > DEFAULT_TERM_BUDGET:
                raise ScaleExceeded("refinement blows the term budget")
            na = tuple(max(e, ai) for e, ai in zip(exps, a))
            # enumerate offsets in prod p^{a_i} O / p^{na_i} O
            ranges = [_coset_offsets(x, ai, p ** di, p) if di else (x,)
                      for x, ai, di in zip(x0, a, deltas)]
            for nx in itertools.product(*ranges):
                out.append((c, nx, na, f0))
        return WavePacket(sp, out)

    def equals(self, other):
        """Exact function equality via refinement to a common lattice."""
        if not isinstance(other, WavePacket) or other.space != self.space:
            return False
        allterms = self.terms + other.terms
        if not allterms:
            return True
        n = self.space.dim
        exps = tuple(
            max(t[2][i] for t in allterms) for i in range(n)
        )
        # both refinements are canonical: sorted, one term per key
        a = self.refined(exps).terms
        b = other.refined(exps).terms
        if len(a) != len(b) or any(s[1:] != t[1:] for s, t in zip(a, b)):
            return False
        return all((s[0] - t[0]).is_zero() for s, t in zip(a, b))

    def __repr__(self):
        return f"WavePacket({len(self.terms)} terms on dim {self.space.dim})"


def riemann_fourier(f, w):
    """Fourier transform at one point by direct cell-sum integration.

    Independent oracle for WavePacket.fourier: chops each term's coset into
    cells on which the integrand is constant and adds cell value * volume.
    """
    sp = f.space
    p = sp.F.p
    d = sp.psi.d
    w = tuple(Fraction(t) for t in w)
    total = CyclotomicScalar.zero()
    for coeff, x0, a, f0 in f.terms:
        # constancy level per coordinate: psi(<f0 + w-dual, x>) must be
        # constant on cells of p^L O
        levels = []
        for i in range(sp.dim):
            xi = f0[i] + w[i]
            need = a[i]
            for j in range(sp.dim):
                if sp.pairing[j] == i:
                    g = f0[j] + w[j]
                    if g != 0:
                        need = max(need, -d - sp._wv[j] - val_p(g, p))
            levels.append(need)
        levels = tuple(levels)
        counts = [p ** (levels[i] - a[i]) for i in range(sp.dim)]
        cells = 1
        for c in counts:
            cells *= c
        if cells > DEFAULT_TERM_BUDGET:
            raise ScaleExceeded("riemann_fourier cell budget")
        vol = sp.vol_lattice(levels)
        ranges = [
            [x0[i] + Fraction(j * p ** a[i]) for j in range(counts[i])]
            for i in range(sp.dim)
        ]
        for pt in itertools.product(*ranges):
            phase = sp.psi(sp.pair(f0, pt)) * sp.psi(sp.pair(pt, w))
            total = total + coeff * phase * vol
    return total


def tensor(p1, p2):
    """Exterior product on the concatenated space."""
    sp = p1.space.concat(p2.space)
    out = []
    for c1, x1, a1, f1 in p1.terms:
        for c2, x2, a2, f2 in p2.terms:
            out.append((c1 * c2, x1 + x2, a1 + a2, f1 + f2))
    return WavePacket(sp, out)
