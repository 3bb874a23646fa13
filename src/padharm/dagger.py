"""Oscillating ("dagger") test-function spaces and the compactness identity.

A dagger scalar of level m on E = F[tau] is theta = theta+ (x) theta- where
theta+ is a multiple of the indicator of p^m O_F and theta- is supported in
p^m O_F with Fourier transform supported in a single valuation shell, exactly
v = -2m - d - v(delta) in the minus coordinate.  Column and matrix variants
place dagger scalars on the last/superdiagonal entries and plain congruence
indicators elsewhere.  The compactness identity evaluates the resulting
smoothed Whittaker-type integral in closed form; both sides are computed
here by independent finite methods.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .characters import shell_sum
from .config import charge
from .cyclotomic import CyclotomicScalar
from .errors import InvalidLevel, SchemaError
from .matrices import mat_mul
from .padic import val_p
from .spaces import WavePacket, e_space, matrix_space_e, riemann_fourier, tensor


# -- generators ----------------------------------------------------------------


class DaggerData:
    """A constructed dagger test function with its building blocks."""

    __slots__ = ("kind", "ext", "psi", "m", "k", "entries", "packet")

    def __init__(self, kind, ext, psi, m, k, entries, packet):
        self.kind = kind
        self.ext = ext
        self.psi = psi
        self.m = m
        self.k = k
        self.entries = entries
        self.packet = packet


def shell_valuation(ext, psi, m):
    """Minus-coordinate valuation of the hat-support shell at level m."""
    vdelta = val_p(ext.delta, ext.F.p)
    return -2 * m - psi.d - vdelta


def make_dagger_scalar(ext, psi, m, unit=1):
    """Generator of the level-m dagger space on E: indicator of p^m O_E
    twisted in the minus coordinate at the shell frequency."""
    if m < 1:
        raise InvalidLevel("dagger level must be >= 1")
    p = ext.F.p
    unit = Fraction(unit)
    if unit == 0 or val_p(unit, p) != 0:
        raise SchemaError("twist unit must be a p-adic unit")
    V = e_space(ext, psi, 1)
    c = unit * Fraction(p) ** shell_valuation(ext, psi, m)
    packet = WavePacket(
        V, [(1, (Fraction(0), Fraction(0)), (m, m), (Fraction(0), c))]
    )
    return DaggerData("scalar", ext, psi, m, 1, {"theta": packet}, packet)


def indicator_E(ext, psi, exps_pair, center_pair=(0, 0)):
    V = e_space(ext, psi, 1)
    return WavePacket.indicator(
        V, exps_pair, center=tuple(Fraction(t) for t in center_pair)
    )


def make_dagger_column(ext, psi, m, k):
    """Column function on M_{k,1}(E): plain p^m O_E indicators above a
    dagger scalar in the last coordinate."""
    if m < 1:
        raise InvalidLevel("dagger level must be >= 1")
    theta = make_dagger_scalar(ext, psi, m)
    entries = {}
    packet = None
    for i in range(k):
        comp = theta.packet if i == k - 1 else indicator_E(ext, psi, (m, m))
        entries[i] = comp
        packet = comp if packet is None else tensor(packet, comp)
    # the concatenated space coincides with e_space(ext, psi, k)
    packet = WavePacket(e_space(ext, psi, k), packet.terms)
    return DaggerData("column", ext, psi, m, k, entries, packet)


def make_dagger_matrix(ext, psi, m, k):
    """Matrix function on H_k(E): congruence indicators with dagger scalars
    on the superdiagonal."""
    if m < 1:
        raise InvalidLevel("dagger level must be >= 1")
    entries = {}
    for i in range(k):
        for j in range(k):
            if i == j:
                entries[(i, j)] = indicator_E(ext, psi, (m, m), (1, 0))
            elif j == i + 1:
                entries[(i, j)] = make_dagger_scalar(ext, psi, m).packet
            else:
                entries[(i, j)] = indicator_E(ext, psi, (m, m))
    sp = matrix_space_e(ext, psi, k)
    # assemble product terms; a frequency attached to entry (i,j) must be
    # stored at position (j,i) because the space pairing is tr(XY)
    pos = {(i, j): 2 * (i * k + j) for i in range(k) for j in range(k)}
    terms = []
    for combo in itertools.product(
        *[entries[(i, j)].terms for i in range(k) for j in range(k)]
    ):
        coeff = CyclotomicScalar.one()
        center = [Fraction(0)] * (2 * k * k)
        exps = [0] * (2 * k * k)
        freq = [Fraction(0)] * (2 * k * k)
        idx = 0
        for i in range(k):
            for j in range(k):
                c, x0, a, f0 = combo[idx]
                idx += 1
                coeff = coeff * c
                base = pos[(i, j)]
                tbase = pos[(j, i)]
                for t in range(2):
                    center[base + t] = x0[t]
                    exps[base + t] = a[t]
                    freq[tbase + t] = f0[t]
        terms.append((coeff, tuple(center), tuple(exps), tuple(freq)))
    packet = WavePacket(sp, terms)
    return DaggerData("matrix", ext, psi, m, k, entries, packet)


# -- definitional predicates -----------------------------------------------


def _invariant_under_shifts(packet, exp):
    """Invariance under translation by p^exp in every coordinate."""
    n = packet.space.dim
    p = packet.space.F.p
    for i in range(n):
        t = [Fraction(0)] * n
        t[i] = Fraction(p) ** exp
        if not packet.shift(tuple(t)).equals(packet):
            return False
    return True


def _constant_in_plus(packet, m):
    """The value does not depend on the plus coordinate, for a packet on E
    supported in p^m O x p^m O and invariant under p^(2m) O: in that
    coordinate it is then a function on p^m O / p^(2m) O (and zero off
    p^m O), a cyclic group generated by p^m, so one shift by p^m decides."""
    p = packet.space.F.p
    return packet.shift((Fraction(p) ** m, Fraction(0))).equals(packet)


def is_admissible_scalar(ext, psi, m, packet):
    """All clauses of the level-m dagger definition on E."""
    if m < 1:
        raise InvalidLevel("dagger level must be >= 1")
    p = ext.F.p
    if not packet.rows:
        return False
    if any(packet.support_floor(t) < m for t in range(packet.space.dim)):
        return False
    if not _invariant_under_shifts(packet, 2 * m):
        return False
    # plus part is a multiple of the indicator of p^m O
    if not _constant_in_plus(packet, m):
        return False
    # hat-support shell: minus coordinate exactly at the shell valuation,
    # plus coordinate within the dual of p^m O
    s0 = shell_valuation(ext, psi, m)
    fh = packet.fourier()
    # a nonzero center is a representative: v(w0) < b, so the whole coset
    # lies on the shell v = s0
    return fh.support_floor(0) >= -m - psi.d and all(
        w0[1] != 0 and val_p(w0[1], p) == s0 for _, w0, _, _ in fh.terms)


def is_admissible_column(data):
    if data.kind != "column":
        return False
    ext, psi, m, k = data.ext, data.psi, data.m, data.k
    for i in range(k - 1):
        if not data.entries[i].equals(indicator_E(ext, psi, (m, m))):
            return False
    return is_admissible_scalar(ext, psi, m, data.entries[k - 1])


def is_admissible_matrix(data):
    """Entrywise clauses plus the derived invariance/decomposability
    properties, the latter checked on pseudorandom exact sample points."""
    if data.kind != "matrix":
        return False
    ext, psi, m, k = data.ext, data.psi, data.m, data.k
    for i in range(k):
        for j in range(k):
            e = data.entries[(i, j)]
            if i == j:
                if not e.equals(indicator_E(ext, psi, (m, m), (1, 0))):
                    return False
            elif j == i + 1:
                if not is_admissible_scalar(ext, psi, m, e):
                    return False
            else:
                if not e.equals(indicator_E(ext, psi, (m, m))):
                    return False
    return matrix_invariance_report(data)["ok"]


def _sample_support_point(data, rng):
    """A pseudorandom E-matrix in 1 + p^m M_k(O_E)."""
    ext, m, k = data.ext, data.m, data.k
    p = ext.F.p
    pm = Fraction(p) ** m
    A = []
    for i in range(k):
        row = []
        for j in range(k):
            x = Fraction(rng.randrange(p ** 2)) * pm + (1 if i == j else 0)
            y = Fraction(rng.randrange(p ** 2)) * pm
            row.append(ext.scalar(x, y))
        A.append(row)
    return A


def _coords(A):
    """The matrix_space_e coordinates of a matrix over E."""
    return tuple(t for row in A for z in row for t in (z.x, z.y))


INVARIANCE_SAMPLES = 8


def matrix_invariance_report(data):
    """Derived properties of admissible matrix data, checked on
    INVARIANCE_SAMPLES points of a generator seeded with 0: invariance
    under the lower-unipotent congruence subgroup and under
    1 + p^m M_k(O_F), and decomposability of the real part."""
    import random

    rng = random.Random(0)
    ext, m, k = data.ext, data.m, data.k
    p = ext.F.p
    pm = Fraction(p) ** m
    f = data.packet
    ok = True
    for _ in range(INVARIANCE_SAMPLES):
        g = _sample_support_point(data, rng)
        base = f.evaluate(_coords(g))
        # lower-unipotent congruence factor
        v = [
            [
                ext.scalar(
                    Fraction(1) if i == j else
                    (Fraction(rng.randrange(p)) * pm if i > j else Fraction(0)),
                    Fraction(rng.randrange(p)) * pm if i > j else Fraction(0))
                for j in range(k)
            ]
            for i in range(k)
        ]
        for prod in (mat_mul(v, g), mat_mul(g, v)):
            if f.evaluate(_coords(prod)) != base:
                ok = False
        # F-rational congruence factor
        h = [
            [
                ext.scalar((Fraction(1) if i == j else Fraction(0))
                           + Fraction(rng.randrange(p)) * pm)
                for j in range(k)
            ]
            for i in range(k)
        ]
        for prod in (mat_mul(h, g), mat_mul(g, h)):
            if f.evaluate(_coords(prod)) != base:
                ok = False
        # real part: replacing the F-part of g by another element of
        # 1 + p^m M_k(O_F) leaves the value unchanged
        g2 = [
            [
                ext.scalar((Fraction(1) if i == j else Fraction(0))
                           + Fraction(rng.randrange(p ** 2)) * pm, g[i][j].y)
                for j in range(k)
            ]
            for i in range(k)
        ]
        if f.evaluate(_coords(g2)) != base:
            ok = False
    return {"ok": ok, "samples": INVARIANCE_SAMPLES}


# -- the compactness identity at n = 2 ---------------------------------------


def compactness_W_direct(ext, psi, eta, theta_data, y):
    """Direct evaluation of the smoothed Whittaker value at diag level 1:
    hat-theta(-tau y) computed by Riemann cell sums, times the enumerated
    eta-twisted multiplicative integral int varphi1(h / y) eta(h) d*h.

    varphi1 is the indicator of 1 + p^m O_E, so the support pins
    v(h) = v(y), and the sum runs over the unit cosets at the packet's
    shell level along h -> h / y in the plus coordinate."""
    m = theta_data.m
    y = Fraction(y)
    hat = riemann_fourier(theta_data.packet, (Fraction(0), -y))
    varphi1 = indicator_E(ext, psi, (m, m), (1, 0))
    v = val_p(y, ext.F.p)
    lam = max(1, eta.conductor_exponent(),
              varphi1.shell_level(((0, 1 / y, 1),), v))
    charge(ext.F.p, [lam], "compactness unit-coset budget")
    integral = shell_sum(lambda h: varphi1.evaluate((h / y, Fraction(0))),
                         eta, v, lam, ext.F.p)
    return hat * integral


def compactness_W_closed(ext, psi, eta, theta_data, y):
    """Closed form: vol(1 + p^m O_F, d*) * eta(y) * hat-theta(-tau y),
    with the transform taken per-term on the wave packet."""
    m = theta_data.m
    y = Fraction(y)
    hat = theta_data.packet.fourier().evaluate((Fraction(0), -y))
    vol = CyclotomicScalar.from_rational(Fraction(ext.F.p) ** (-m))
    return vol * eta(y) * hat
