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

import functools
import itertools
from fractions import Fraction
from math import prod

from .config import charge
from .cyclotomic import CyclotomicScalar
from .errors import InvalidLevel, SchemaError
from .padic import val_p
from .spaces import (WavePacket, e_space, matrix_space_e, riemann_fourier,
                     tensor, val_pair)


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
    entries = {i: theta.packet if i == k - 1 else indicator_E(ext, psi, (m, m))
               for i in range(k)}
    return DaggerData("column", ext, psi, m, k, entries,
                      column_packet(ext, psi, k, entries))


def column_packet(ext, psi, k, entries):
    """The tensor product of the k column entries, on the concatenated
    space, which equals e_space(ext, psi, k)."""
    return functools.reduce(tensor, [entries[i] for i in range(k)])


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
    return DaggerData("matrix", ext, psi, m, k, entries,
                      matrix_packet(ext, psi, k, entries))


def matrix_packet(ext, psi, k, entries):
    """The product of the k x k entries, on matrix_space_e(ext, psi, k):
    its value at g is the product of entries[(i, j)] at g_ij.

    A frequency attached to entry (i,j) must be stored at position (j,i)
    because the space pairing is tr(XY).  Both positions have the weights
    of the entry's space, and the lattice at (i,j) is the entry's, so the
    dual lattice at (j,i) is too: the rows built from canonical entry rows
    are canonical.  One row per combination of entry rows, charged
    before any is built."""
    slots = [(i, j) for i in range(k) for j in range(k)]
    size = 2 * k * k
    charge(prod(len(entries[ij].rows) for ij in slots), [1],
           "matrix packet budget")
    keyed = []
    for combo in itertools.product(*[entries[ij].rows for ij in slots]):
        coeff = CyclotomicScalar.one()
        center, exps, freq = [None] * size, [0] * size, [None] * size
        for (c, x0, a, f0), (i, j) in zip(combo, slots):
            coeff = coeff * c
            base, tbase = 2 * (i * k + j), 2 * (j * k + i)
            center[base:base + 2] = x0
            exps[base:base + 2] = a
            freq[tbase:tbase + 2] = f0
        keyed.append(((tuple(exps), tuple(center), tuple(freq)), coeff))
    return WavePacket._of(matrix_space_e(ext, psi, k), keyed)


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
        w0[1][0] and val_pair(w0[1], p) == s0 for _, w0, _, _ in fh.rows)


def is_admissible_column(data):
    """The entrywise clauses, and the packet is the tensor product of the
    entries."""
    if data.kind != "column":
        return False
    ext, psi, m, k = data.ext, data.psi, data.m, data.k
    for i in range(k - 1):
        if not data.entries[i].equals(indicator_E(ext, psi, (m, m))):
            return False
    return (is_admissible_scalar(ext, psi, m, data.entries[k - 1])
            and data.packet.equals(column_packet(ext, psi, k, data.entries)))


def is_admissible_matrix(data):
    """The entrywise clauses, and the packet is the product of the entries:
    f(g) = prod f_ij(g_ij), with f_ii = 1_{1 + p^m O_E}, f_i,i+1 a dagger
    scalar theta that passes is_admissible_scalar, and f_ij = 1_{p^m O_E}
    elsewhere.

    The derived properties then hold, so they are not checked apart.
    Let S be the support of f: the g whose every entry lies in the support
    of its factor.  Each entry of g in S lies in 1 + p^m O_E on the
    diagonal and in p^m O_E off it.

    Invariance.  The lower-unipotent congruence subgroup (strictly lower
    entries in p^m O_E) is generated by the u = 1 + t E_ab with a > b and
    t in p^m O_E, and 1 + p^m M_k(O_F) by the u = 1 + t E_ab with any
    a, b and t in p^m O_F: LDU elimination stays in the group, as each
    pivot lies in 1 + p^m O_F and each multiplier in p^m O_F.  The inverse
    of a generator is a generator of the same kind.  Let g be in S.  The
    product ug adds t g_bj to each entry (a, j), and gu adds g_ia t to
    each entry (i, b).  So entry (a, b) moves by t + t (g_bb - 1) or
    t + (g_aa - 1) t, that is by t and then by p^(2m) O_E, and every other
    entry moves by t times an off-diagonal entry of g, in p^(2m) O_E.
    Entry (a, b) is diagonal for a = b, plain for a > b, and for
    b = a + 1, which only an F-rational u reaches, a dagger entry moved
    by t in its plus coordinate.  Hence a generator, on either side, moves
    a dagger entry by p^(2m) O_E, or in its plus coordinate by p^m O_F,
    keeps a diagonal entry within 1 + p^m O_E and a plain entry within
    p^m O_E.  The shift clauses make theta invariant under p^(2m) O_E and
    under p^m O_F in the plus coordinate, and the indicators are constant
    on those sets, so ug and gu lie in S with f(ug) = f(gu) = f(g).  Each
    subgroup therefore preserves S, and off S the identity is 0 = 0.

    Real-part decomposability.  Replacing Re g by another element of
    1 + p^m M_k(O_F) moves each plus coordinate by p^m O_F, within
    1 + p^m O_F on the diagonal and within p^m O_F off it, which leaves
    each factor unchanged; and when Re g lies outside 1 + p^m M_k(O_F),
    some plus coordinate leaves that set, where its factor vanishes.  So
    f(g) = 1_{1 + p^m M_k(O_F)}(Re g) f(1 + tau Im g)."""
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
    return data.packet.equals(matrix_packet(ext, psi, k, data.entries))


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
    (integral,) = varphi1.shell_integrals(
        (0, 0), ((0, 1 / y, 1),), eta, [val_p(y, ext.F.p)],
        "compactness unit-coset budget")
    return hat * integral


def compactness_W_closed(ext, psi, eta, theta_data, y):
    """Closed form: vol(1 + p^m O_F, d*) * eta(y) * hat-theta(-tau y),
    with the transform taken per-term on the wave packet."""
    m = theta_data.m
    y = Fraction(y)
    hat = theta_data.packet.fourier().evaluate((Fraction(0), -y))
    vol = CyclotomicScalar.from_rational(Fraction(ext.F.p) ** (-m))
    return vol * eta(y) * hat
