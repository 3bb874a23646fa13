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

Integer kernel.  A packet's one stored form is `rows`, a tuple of
canonical integer rows (coeff, C, exps, G):
- C and G are tuples of int pairs (n, p^k) in lowest terms (k = 0, or p
  does not divide n): the representatives (`_mod_lattice`) of the center
  modulo the lattice prod p^exps_i O and of the frequency modulo its
  dual lattice (`Space.dual_exps`), each in [0, p^e);
- the rows are sorted on the key (exps, C, G), no two rows share a key,
  and no coefficient is zero.
`terms` is a view derived from the rows: the same tuples, in the same
order, with `Fraction` centers and frequencies.  It is built on first
read and cached; it is never stored apart from the rows.

The calculus works on the ints.  The public constructor reduces its
input; `fourier`, `reflect`, `refined` and the product build rows whose
centers are representatives by construction (`_neg`, `_offsets`),
reduce only the frequencies, and `_merged` sorts and sums.  A frequency
moved by lam in the dual lattice multiplies its row by psi(<lam, C>),
the constant value of psi(<lam, .>) on the coset (`_psi_pair`: the
pairing on numerators and denominators, the phase by
`characters.frac_part_ratio`).  A point lies in a term's coset exactly
when its representative modulo the term's lattice is the center, so
`evaluate` and the product compare pairs.  `equals` merges the rows of
f and of -g, so rows that agree cancel, and refines only the rows left.
`support_floor` and `level` read a coordinate's least valuation on the
support and its constancy level off the rows; `shell_integrals`, the one
rank-1 shell integral, and the rank-2 cells of `orbital.orbital_rs` take
their levels from `level`, and no caller sets one.
psi's values are built from the int pair of `frac_part_ratio` by
`CyclotomicScalar.root_of_unity_ratio`, and the coefficients compute on
ints, so the calculus on rows builds no `Fraction`.  Fractions appear
only at its edges: the points read from outside (`evaluate`, `shift`),
the points `shell_integrals` moves along a line, and `riemann_fourier`,
the one reader of the `terms` view, which it reads with `Space.pair`
and psi, so it stays an independent route.  As psi is additive, it adds
a cell's two pairings, counts the cells of a term per sum, and
multiplies by coeff * volume once per term.

Work is priced by `config.charge` alone, before the loop that does it:
the public constructor charges its input terms, the product and
`tensor` their row pairs, `refined` its offsets, `riemann_fourier` its
cells over all terms and `shell_integrals` its shells and unit cosets.
`_merged` then only sorts and sums.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd
from operator import itemgetter

from .characters import frac_part_ratio
from .config import charge
from .cyclotomic import CyclotomicScalar, sqrt_rational_power
from .errors import SchemaError
from .padic import strip_p, val_p

_new = object.__new__
_by_key = itemgetter(0)


@lru_cache(maxsize=256)
def _checked_pairing(p, weights, pairing):
    """(weights, pairing, _wv, _w) of a Space over a field of residue
    characteristic p, checked once per distinct input: the weights as
    Fractions, the pairing (the identity when None), the valuations and
    the int pairs of the weights.  A bad input raises SchemaError, which
    the cache does not keep, so it raises on every call."""
    weights = tuple(Fraction(c) for c in weights)
    n = len(weights)
    pairing = pairing if pairing is not None else tuple(range(n))
    if sorted(pairing) != list(range(n)):
        raise SchemaError("pairing is not a permutation")
    for i, j in enumerate(pairing):
        if pairing[j] != i or weights[j] != weights[i]:
            raise SchemaError("pairing must be a weight-preserving involution")
    if any(c == 0 for c in weights):
        raise SchemaError("pairing weights must be nonzero")
    return (weights, pairing, tuple(val_p(c, p) for c in weights),
            tuple((c.numerator, c.denominator) for c in weights))


class Space:
    __slots__ = ("F", "psi", "weights", "pairing", "_wv", "_w")

    def __init__(self, F, psi, weights, pairing=None):
        self.F = F
        self.psi = psi
        self.weights, self.pairing, self._wv, self._w = _checked_pairing(
            F.p, tuple(weights), None if pairing is None else tuple(pairing))

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
        return tuple([-d - w - exps[j]
                      for w, j in zip(self._wv, self.pairing)])

    def vol_exponent(self, exps):
        """k with p^(k/2) the self-dual volume of prod p^{a_i} O."""
        return -2 * sum(exps) - sum(self.psi.d + w for w in self._wv)

    def vol_lattice(self, exps):
        """Self-dual volume of the product lattice prod p^{a_i} O."""
        return sqrt_rational_power(self.F.p, self.vol_exponent(exps))

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
    return Space(F, psi, (1,) * dim)


def e_space(ext, psi, dim):
    """E^dim: coordinates come in (plus, minus) pairs with weights (1, delta)."""
    return _delta_space(ext, psi, dim, True, None)


def e_minus_space(ext, psi, dim):
    return _delta_space(ext, psi, dim, False, None)


def transposition(k):
    """The coordinate permutation X -> X^t of a k x k matrix stored row by
    row: entry (i, j) at i*k + j goes to (j, i)."""
    return tuple((t % k) * k + t // k for t in range(k * k))


def matrix_space_f(F, psi, k):
    """M_k(F) with pairing tr(XY): couples (i,j) with (j,i)."""
    return Space(F, psi, (1,) * (k * k), transposition(k))


def matrix_space_e(ext, psi, k):
    """M_k(E) with pairing psi_E(tr(XY)): per entry (plus, minus) weight
    (1, delta), transposition on both parts."""
    return _delta_space(ext, psi, k * k, True, k)


def s_space(ext, psi, k):
    """The -1 eigenspace in M_k(E) (entries tau*y): weight-delta
    coordinates with transposition pairing."""
    return _delta_space(ext, psi, k * k, False, k)


def _delta_space(ext, psi, dim, plus, k):
    """The space over ext.F of dim coordinates of weight delta, each after
    one of weight 1 when plus, paired by the transposition of k x k
    matrices (on both parts) or, when k is None, by the identity."""
    sp = _new(Space)
    sp.F = ext.F
    sp.psi = psi
    sp.weights, sp.pairing, sp._wv, sp._w = _delta_fields(
        ext.F.p, ext.delta, dim, plus, k)
    return sp


@lru_cache(maxsize=256)
def _delta_fields(p, delta, dim, plus, k):
    """`_checked_pairing` of a `_delta_space`, keyed on delta once: its key
    would hash the dim copies of delta, a Fraction hash each."""
    weights = (1, delta) * dim if plus else (delta,) * dim
    pairing = None
    if k is not None:
        pairing = transposition(k)
        if plus:
            pairing = tuple(2 * t + h for t in pairing for h in (0, 1))
    return _checked_pairing.__wrapped__(p, weights, pairing)


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


def _offsets(n, d, a, count, p):
    """n / d + j p^a for j in range(count), as pairs in lowest terms, for
    a representative n / d modulo p^a as `_mod_lattice` returns it.

    Such a pair is 0 or has p^k = d with p not dividing n, and k > -a when
    a < 0; then every sum keeps the denominator d.  The sums are again
    representatives modulo p^(a + log_p count)."""
    if a >= 0:
        step = p ** a * d
    elif n:
        step = d // p ** -a
    else:
        q = p ** -a
        return [(j // g, q // g) for j in range(count) for g in (gcd(j, q),)]
    return [(n + j * step, d) for j in range(count)]


def _neg(x, a, p):
    """The representative of -x modulo p^a, for a representative x."""
    n, d = x
    if not n:
        return x
    return (p ** a * d if a >= 0 else d // p ** -a) - n, d


def _pair_sum(u, v):
    """u + v for pairs (n, d) with d > 0, in lowest terms."""
    (n1, d1), (n2, d2) = u, v
    n, d = n1 * d2 + n2 * d1, d1 * d2
    g = gcd(n, d)
    return n // g, d // g


def _psi_pair(sp, x, y):
    """psi(<x, y>) for coordinates given as int pairs (n, d), d > 0."""
    n, d = 0, 1
    for (cn, cd), (xn, xd), j in zip(sp._w, x, sp.pairing):
        if xn:
            yn, yd = y[j]
            if yn:
                tn, td = cn * xn * yn, cd * xd * yd
                if td == d:
                    n += tn
                else:
                    n, d = n * td + tn * d, d * td
    return CyclotomicScalar.root_of_unity_ratio(
        *frac_part_ratio(n, d, sp.F.p, sp.psi.d))


def _freq_moved(sp, G, b):
    """(R, lam): the representative R of the frequency G modulo the dual
    lattice prod p^b_i O, and lam = G - R, or None when R is G."""
    p = sp.F.p
    R = tuple([_mod_lattice(n, d, e, p) for (n, d), e in zip(G, b)])
    if R == G:
        return G, None
    return R, [(n * s - m * d, d * s) for (n, d), (m, s) in zip(G, R)]


def _keyed(sp, coeff, C, exps, G):
    """The sort key and coefficient of a row whose center C is a
    representative: the frequency moved into its canonical form by lam in
    the dual lattice multiplies the row by psi(<lam, x>), which is
    constant on the coset, its value at the center."""
    R, lam = _freq_moved(sp, G, sp.dual_exps(exps))
    if lam is not None:
        coeff = coeff * _psi_pair(sp, lam, C)
    return (exps, C, R), coeff


def _merged(keyed):
    """The canonical rows of (key, coeff) pairs, key = (exps, C, G): sorted
    on the key, each run of one key summed, zeros dropped."""
    keyed.sort(key=_by_key)
    out = []
    last = None
    for key, coeff in keyed:
        if key == last:
            out[-1][0] = out[-1][0] + coeff
        else:
            out.append([coeff, key])
            last = key
    return tuple((coeff, C, exps, G) for coeff, (exps, C, G) in out
                 if not coeff.is_zero())


def val_pair(x, p):
    """v_p(n / d) for a nonzero pair (n, d) in lowest terms, where p
    divides at most one of n and d."""
    n, d = x
    return -val_p(d, p) if d % p == 0 else val_p(n, p)


def _as_pair(x):
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator, x.denominator


class WavePacket:
    """A sum of terms, stored as its canonical integer `rows`."""

    def __init__(self, space, terms):
        dim = space.dim
        p = space.F.p
        charge(len(terms), [1], "wave packet term budget")
        keyed = []
        for coeff, center, exps, freq in terms:
            if len(center) != dim or len(exps) != dim or len(freq) != dim:
                raise SchemaError("term dimension mismatch")
            if not isinstance(coeff, CyclotomicScalar):
                coeff = CyclotomicScalar.from_rational(coeff)
            exps = tuple(exps)
            C = tuple([_mod_lattice(*_as_pair(x), a, p)
                       for x, a in zip(center, exps)])
            keyed.append(_keyed(space, coeff, C, exps,
                                tuple(map(_as_pair, freq))))
        self.space = space
        self.rows = _merged(keyed)

    @staticmethod
    def _of(space, keyed):
        """The trusted constructor: the packet of (key, coeff) pairs whose
        keys are canonical."""
        out = _new(WavePacket)
        out.space = space
        out.rows = _merged(keyed)
        return out

    @cached_property
    def terms(self):
        """The rows with Fraction centers and frequencies, built on first
        read; later reads find them in the instance."""
        return tuple((c, tuple([Fraction(n, d) for n, d in C]), exps,
                      tuple([Fraction(n, d) for n, d in G]))
                     for c, C, exps, G in self.rows)

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
        x = tuple(map(_as_pair, x))
        if len(x) != sp.dim:
            raise SchemaError("evaluate dimension mismatch")
        total = CyclotomicScalar.zero()
        # x is in a term's coset exactly when its representative modulo
        # that term's lattice is the term's center
        reps = {}
        for coeff, C, exps, G in self.rows:
            rep = reps.get(exps)
            if rep is None:
                rep = reps[exps] = tuple(
                    [_mod_lattice(n, d, a, p) for (n, d), a in zip(x, exps)])
            if rep == C:
                total = total + coeff * _psi_pair(sp, G, x)
        return total

    def scale(self, c):
        if not isinstance(c, CyclotomicScalar):
            c = CyclotomicScalar.from_rational(c)
        return WavePacket._of(self.space, [
            ((e, C, G), c * r) for r, C, e, G in self.rows])

    def __mul__(self, other):
        """Pointwise product."""
        if not isinstance(other, WavePacket) or other.space != self.space:
            return NotImplemented
        sp = self.space
        p = sp.F.p
        charge(len(self.rows) * len(other.rows), [1],
               "wave packet product budget")
        keyed = []
        for c1, x1, a1, f1 in self.rows:
            for c2, x2, a2, f2 in other.rows:
                # the cosets meet when the finer center lies in the
                # coarser coset: its representative there is that center
                nc = []
                for u, v, s, t in zip(x1, x2, a1, a2):
                    if s < t:
                        u, v, s, t = v, u, t, s
                    if u != v if s == t else _mod_lattice(*u, t, p) != v:
                        break
                    nc.append(u)
                else:
                    keyed.append(_keyed(sp, c1 * c2, tuple(nc),
                                        tuple(map(max, a1, a2)),
                                        tuple(map(_pair_sum, f1, f2))))
        return WavePacket._of(sp, keyed)

    def reflect(self):
        """x -> f(-x)."""
        sp = self.space
        p = sp.F.p
        return WavePacket._of(sp, [
            _keyed(sp, c, tuple(map(_neg, C, a, itertools.repeat(p))), a,
                   tuple([(-n, d) for n, d in G]))
            for c, C, a, G in self.rows])

    def shift(self, t):
        """g(x) = f(x - t): the centers move by t, and each row takes the
        phase psi(-<G, t>)."""
        sp = self.space
        p = sp.F.p
        t = tuple(map(_as_pair, t))
        if len(t) != sp.dim:
            raise SchemaError("shift dimension mismatch")
        return WavePacket._of(sp, [
            ((a, tuple([_mod_lattice(*_pair_sum(x, u), e, p)
                        for x, u, e in zip(C, t, a)]), G),
             c * _psi_pair(sp, [(-n, d) for n, d in G], t))
            for c, C, a, G in self.rows])

    # -- integral calculus -----------------------------------------------------
    def fourier(self):
        """Self-dual Fourier transform against psi(<., .>)."""
        sp = self.space
        p = sp.F.p
        keyed = []
        for c, C, a, G in self.rows:
            # -G is a representative modulo the dual lattice p^b, and C
            # modulo the dual of p^b, which is p^a
            b = sp.dual_exps(a)
            R = tuple(map(_neg, G, b, itertools.repeat(p)))
            keyed.append(((b, R, C),
                          c * sp.vol_lattice(a) * _psi_pair(sp, G, C)))
        return WavePacket._of(sp, keyed)

    def integral(self):
        """Integral against the self-dual measure: coeff * vol(exps) summed
        over the rows whose frequency is 0; any other frequency is a
        nontrivial character on its coset, whose integral is 0."""
        vol = self.space.vol_lattice
        return sum((c * vol(a) for c, _, a, G in self.rows
                    if not any(n for n, _ in G)), CyclotomicScalar.zero())

    def convolve_add(self, other):
        """Additive convolution (f * g)(x) = int f(y) g(x - y) dy."""
        prod = self.fourier() * other.fourier()
        return prod.fourier().reflect()

    # -- support and shells --------------------------------------------------
    def support_floor(self, t):
        """The least valuation of coordinate t on the support of the rows:
        a nonzero center C_t is a representative, so v(C_t) < a_t is the
        valuation of the whole coset; a zero C_t leaves p^a_t O."""
        p = self.space.F.p
        return min([val_pair(C[t], p) if C[t][0] else a[t]
                    for _, C, a, _ in self.rows])

    def level(self, t):
        """The least l at which every row is constant on the cosets
        x + p^l O of coordinate t: the largest max(a_t, -d - v(w_j G_j))
        over the (nonempty) rows, j paired with t and the second term only
        where G_j != 0, as the coset test needs l >= a_t and the phase
        psi(w_j G_j x_t) needs w_j G_j p^l O in the kernel p^-d O."""
        sp = self.space
        p = sp.F.p
        j = sp.pairing[t]
        top = -sp.psi.d - sp._wv[j]
        return max([max(a[t], top - val_pair(G[j], p)) if G[j][0] else a[t]
                    for _, _, a, G in self.rows])

    def shell_integrals(self, point, line, eta, shells, what):
        """The integrals of f(x(h)) eta(h) d*h (unnormalized) over the
        shells v(h) = v, v in `shells`, x(h) being `point` with x_t = c h^e
        for each (t, c, e) in `line` (e = +-1).  On h(1 + p^lam O), x_t
        moves in x_t p^lam O, so f is constant once lam >= level(t) - v(c)
        - e v for each t.  `config.charge` refuses under `what` first at p
        per shell, one count that needs no level and no per-shell term, so
        a long range is refused at once; then at p^lam per shell, lam =
        max(1, conductor of eta, those bounds).  An integral is q^-lam
        times the sum over h = u p^v, u in [1, p^lam) prime to p, skipping
        the cells where f vanishes."""
        p = self.space.F.p
        charge(p * len(shells), [1], what)
        floor = max(1, eta.conductor_exponent())
        tops = [(self.level(t) - val_p(c, p), e) for t, c, e in line]
        lams = [max([floor] + [top - e * v for top, e in tops])
                for v in shells]
        charge(p, lams, what)
        x = list(point)
        q = Fraction(p)
        out = []
        for v, lam in zip(shells, lams):
            pv = q ** v
            total = CyclotomicScalar.zero()
            for u in range(1, p ** lam):
                if u % p == 0:
                    continue
                h = u * pv
                for t, c, e in line:
                    x[t] = c * h if e == 1 else c / h
                val = self.evaluate(x)
                if not val.is_zero():
                    total = total + val * eta(h)
            out.append(total * q ** (-lam))
        return out

    # -- structure -----------------------------------------------------------
    def refined(self, exps):
        """The same function written over the finer product lattice p^exps."""
        sp = self.space
        p = sp.F.p
        deltas = [[max(e - ai, 0) for e, ai in zip(exps, a)]
                  for _, _, a, _ in self.rows]
        # a row splits into p^(sum of its deltas) offsets
        charge(p, map(sum, deltas), "refinement offset budget")
        keyed = []
        for (c, C, a, G), row_deltas in zip(self.rows, deltas):
            na = tuple(map(max, exps, a))
            # the offsets in prod p^{a_i} O / p^{na_i} O are representatives
            # modulo p^na; the frequency moves once for all of them
            ranges = [_offsets(*x, ai, p ** di, p) if di else (x,)
                      for x, ai, di in zip(C, a, row_deltas)]
            R, lam = _freq_moved(sp, G, sp.dual_exps(na))
            cells = itertools.product(*ranges)
            if lam is None:
                keyed += [((na, nx, R), c) for nx in cells]
            else:
                keyed += [((na, nx, R), c * _psi_pair(sp, lam, nx))
                          for nx in cells]
        return WavePacket._of(sp, keyed)

    def equals(self, other):
        """Exact function equality, decided on the canonical rows of f - g.

        `_merged` sums the rows of f and the negated rows of g that share a
        key, so rows that agree cancel before anything is refined.  The
        rows left are refined to the componentwise max of their own exps,
        and f = g exactly when that refinement has no rows.

        Proof.  The rows left are the canonical rows of f - g; with none
        left, f - g is the empty sum.  Refined to one lattice prod p^a_i
        O, they are canonical rows sharing that lattice, and such rows
        with distinct keys are linearly independent functions: distinct
        centers are disjoint cosets, and on one coset, frequencies that
        differ modulo the dual lattice are distinct characters.  A sum of
        them with nonzero coefficients is therefore not the zero
        function, so f - g = 0 has no canonical rows at any lattice its
        rows refine to, and a refinement with rows is a nonzero f - g."""
        if not isinstance(other, WavePacket) or other.space != self.space:
            return False
        diff = WavePacket._of(self.space, [
            ((a, C, G), c) for c, C, a, G in self.rows] + [
            ((a, C, G), -c) for c, C, a, G in other.rows])
        if not diff.rows:
            return True
        exps = tuple(map(max, zip(*(r[2] for r in diff.rows))))
        return not diff.refined(exps).rows


def riemann_fourier(f, w):
    """Fourier transform at one point by direct cell-sum integration.

    Independent oracle for WavePacket.fourier: chops each term's coset into
    cells on which the integrand is constant and adds cell value * volume.
    psi is additive, so a cell's value is psi(<f0, x> + <x, w>): a term
    counts its cells per sum, kept as an unreduced int pair (a Fraction
    sum and its hash per cell cost as much as the two values of psi they
    replace), and adds psi of each sum times its count, times coeff *
    volume once.
    """
    sp = f.space
    p = sp.F.p
    d = sp.psi.d
    w = tuple(Fraction(t) for t in w)
    if len(w) != sp.dim:
        raise SchemaError("riemann_fourier dimension mismatch")
    leveled = []
    for coeff, x0, a, f0 in f.terms:
        # constancy level per coordinate i: psi(<f0, x> + <x, w>) pairs
        # x_i with g = f0_j + w_j, j = pairing[i], and must be constant on
        # cells of p^L O
        levels = []
        for i, j in enumerate(sp.pairing):
            g = f0[j] + w[j]
            levels.append(max(a[i], -d - sp._wv[j] - val_p(g, p)) if g
                          else a[i])
        leveled.append((coeff, x0, a, f0, levels))
    # a term has p^(sum of L - a) cells
    charge(p, (sum(levels) - sum(a) for _, _, a, _, levels in leveled),
           "riemann_fourier cell budget")
    total = CyclotomicScalar.zero()
    for coeff, x0, a, f0, levels in leveled:
        counts = [p ** (L - ai) for L, ai in zip(levels, a)]
        vol = sp.vol_lattice(levels)
        ranges = [
            [x0[i] + Fraction(j * p ** a[i]) for j in range(counts[i])]
            for i in range(sp.dim)
        ]
        sums = Counter()
        for pt in itertools.product(*ranges):
            x, y = sp.pair(f0, pt), sp.pair(pt, w)
            sums[x.numerator * y.denominator + y.numerator * x.denominator,
                 x.denominator * y.denominator] += 1
        cells = CyclotomicScalar.zero()
        for (num, den), count in sums.items():
            cells = cells + sp.psi(Fraction(num, den)) * count
        total = total + coeff * vol * cells
    return total


def tensor(p1, p2):
    """Exterior product on the concatenated space, whose dual exponents
    are those of the factors, so concatenated rows stay canonical."""
    charge(len(p1.rows) * len(p2.rows), [1], "wave packet tensor budget")
    return WavePacket._of(p1.space.concat(p2.space), [
        ((a1 + a2, x1 + x2, f1 + f2), c1 * c2)
        for c1, x1, a1, f1 in p1.rows for c2, x2, a2, f2 in p2.rows])
