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
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from operator import itemgetter

from .cyclotomic import CyclotomicScalar, sqrt_rational_power
from .errors import ScaleExceeded, SchemaError
from .padic import val_p

DEFAULT_TERM_BUDGET = 300000

_ZERO = Fraction(0)
_by_sort_key = itemgetter(0)


class Space:
    __slots__ = ("F", "psi", "weights", "pairing", "labels", "_wv")

    def __init__(self, F, psi, weights, pairing=None, labels=None):
        self.F = F
        self.psi = psi
        self.weights = tuple(Fraction(c) for c in weights)
        n = len(self.weights)
        self.pairing = tuple(pairing) if pairing is not None else tuple(range(n))
        self.labels = tuple(labels) if labels is not None else tuple(
            str(i) for i in range(n)
        )
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
        total = _ZERO
        for c, xi, j in zip(self.weights, x, self.pairing):
            if xi:
                yj = y[j]
                if yj:
                    if not isinstance(xi, Fraction):
                        xi = Fraction(xi)
                    if not isinstance(yj, Fraction):
                        yj = Fraction(yj)
                    total += c * xi * yj
        return total

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
            self.labels + other.labels,
        )


# -- space constructors ------------------------------------------------------


def f_space(F, psi, dim, weights=None, labels=None):
    w = weights if weights is not None else (Fraction(1),) * dim
    return Space(F, psi, w, labels=labels)


def e_space(ext, psi, dim, labels=None):
    """E^dim: coordinates come in (plus, minus) pairs with weights (1, delta)."""
    d = ext.delta
    w = []
    lab = []
    for i in range(dim):
        w += [Fraction(1), d]
        lab += [f"{i}+", f"{i}-"]
    return Space(ext.F, psi, w, labels=labels or lab)


def e_minus_space(ext, psi, dim, labels=None):
    d = ext.delta
    return Space(ext.F, psi, (d,) * dim, labels=labels)


def matrix_space_f(F, psi, k):
    """M_k(F) with pairing tr(XY): couples (i,j) with (j,i)."""
    idx = {}
    for i in range(k):
        for j in range(k):
            idx[(i, j)] = len(idx)
    pairing = [idx[(j, i)] for (i, j) in idx]
    labels = [f"{i},{j}" for (i, j) in idx]
    return Space(F, psi, (Fraction(1),) * (k * k), pairing, labels)


def matrix_space_e(ext, psi, k):
    """M_k(E) with pairing psi_E(tr(XY)): per entry (plus, minus) weight
    (1, delta), transposition on both parts."""
    d = ext.delta
    coords = []
    for i in range(k):
        for j in range(k):
            coords.append((i, j, "+"))
            coords.append((i, j, "-"))
    idx = {c: t for t, c in enumerate(coords)}
    pairing = [idx[(j, i, s)] for (i, j, s) in coords]
    weights = [Fraction(1) if s == "+" else d for (_, _, s) in coords]
    labels = [f"{i},{j}{s}" for (i, j, s) in coords]
    return Space(ext.F, psi, weights, pairing, labels)


def s_space(ext, psi, k):
    """The -1 eigenspace in M_k(E) (entries tau*y): weight-delta
    coordinates with transposition pairing."""
    d = ext.delta
    idx = {}
    for i in range(k):
        for j in range(k):
            idx[(i, j)] = len(idx)
    pairing = [idx[(j, i)] for (i, j) in idx]
    labels = [f"{i},{j}-" for (i, j) in idx]
    return Space(ext.F, psi, (d,) * (k * k), pairing, labels)


# -- wave packets -------------------------------------------------------------


def _mod_lattice(x, a, p):
    """The representative of x modulo p^a Z_(p): the unique m / p^k in
    [0, p^a) with x - m / p^k in p^a Z_(p).

    The p-prime part of the denominator is inverted modulo a power of p,
    so 1/2 and 0 are the same class modulo Z_(3).  Returns x itself when
    it already is the representative.
    """
    if not isinstance(x, Fraction):
        x = Fraction(x)
    num, unit = x.numerator, x.denominator
    v = 0
    while unit % p == 0:
        unit //= p
        v += 1
    # p^k x lies in Z_(p); the class lives in Z_(p) / p^(k + a) Z_(p)
    k = max(v, -a)
    if k + a == 0:
        return _ZERO
    mod = p ** (k + a)
    n = num * p ** (k - v)
    if unit == 1:
        if 0 <= n < mod:
            return x
        return Fraction(n % mod, p ** k)
    return Fraction(n * pow(unit, -1, mod) % mod, p ** k)


class WavePacket:
    __slots__ = ("space", "terms")

    def __init__(self, space, terms):
        self.space = space
        self.terms = self._canonicalize(terms)

    def _canonicalize(self, terms):
        sp = self.space
        p = sp.F.p
        rows = []
        for coeff, center, exps, freq in terms:
            if len(center) != sp.dim or len(exps) != sp.dim or len(freq) != sp.dim:
                raise SchemaError("term dimension mismatch")
            if not isinstance(coeff, CyclotomicScalar):
                coeff = CyclotomicScalar.from_rational(coeff)
            exps = tuple(exps)
            duals = sp.dual_exps(exps)
            newf = tuple(
                _mod_lattice(f, b, p) for f, b in zip(freq, duals)
            )
            newc = tuple(_mod_lattice(c, a, p) for c, a in zip(center, exps))
            lam = tuple(
                _ZERO if nf is f else Fraction(f) - nf
                for f, nf in zip(freq, newf)
            )
            if any(lam):
                coeff = coeff * sp.psi(sp.pair(lam, center))
            key = (newc, exps, newf)
            rows.append((_term_sort_key(key), key, coeff))
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
    def zero(space):
        return WavePacket(space, [])

    @staticmethod
    def indicator(space, exps, center=None, freq=None, coeff=1):
        n = space.dim
        center = tuple(center) if center is not None else (Fraction(0),) * n
        freq = tuple(freq) if freq is not None else (Fraction(0),) * n
        if isinstance(exps, int):
            exps = (exps,) * n
        return WavePacket(space, [(coeff, center, tuple(exps), freq)])

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

    def pullback_diagonal(self, scales):
        """g(x) = f(s * x) for a per-coordinate invertible scaling s."""
        sp = self.space
        p = sp.F.p
        scales = tuple(Fraction(s) for s in scales)
        if any(s == 0 for s in scales):
            raise SchemaError("scales must be invertible")
        out = []
        pi = sp.pairing
        for c, x0, a, f0 in self.terms:
            nx = tuple(x / s for x, s in zip(x0, scales))
            na = tuple(ai - val_p(s, p) for ai, s in zip(a, scales))
            nf = tuple(f0[i] * scales[pi[i]] for i in range(sp.dim))
            out.append((c, nx, na, nf))
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
            ranges = []
            for x, ai, di in zip(x0, a, deltas):
                step = Fraction(p) ** ai
                ranges.append([x + step * j for j in range(p ** di)])
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


def _term_sort_key(key):
    center, exps, freq = key
    return (
        exps,
        tuple((f.numerator, f.denominator) for f in center),
        tuple((f.numerator, f.denominator) for f in freq),
    )
