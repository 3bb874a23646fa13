"""Eta-twisted orbital integrals on the symmetric-space Lie algebra.

Three computation routes live here, each exact:

* ``orbital_nilpotent`` -- the regularized integral over the regular
  nilpotent orbit through xi_+ (or xi_-), evaluated coordinate-wise as a
  product of Tate-type local factors, giving a rational function of
  T = q^(-s).
* ``orbital_rs_n1`` / ``orbital_rs`` -- regular semisimple integrals by
  finite enumeration of torus shells (rank 1) or of additive matrix
  cells with a determinant-valuation window certified through the
  delta_+ section (rank 2; the walk over the cells is in ``cells``).
  Rank-1 shells take their range from the packet rows' windows of v(h)
  and are summed by ``WavePacket.shell_integrals``, which charges their
  cosets first;
  ``config.charge`` meters the rank-2 cells first.  Both ranks read
  their levels off the packet rows with ``WavePacket.level``.
* the descent pipeline ``f_natural`` -> ``f_psi_natural`` ->
  ``mu_via_nilpotent`` / ``spherical_rhs``, used for the germ-constancy
  and spherical identities in rank 1.

Conventions: the group acts by X |-> h X h^(-1) with h embedded as
diag(h, 1); the multiplicative weight is eta(det h) |det h|^s with the
unnormalized measure d*h = dh / |det h|^n, and the nilpotent integrals
are normalized so the level-0 indicator gives (1 - 1/q)/(1 + T) in
rank 1.  On square-matrix coordinate spaces the trace pairing couples
the (i,j) and (j,i) slots, so a frequency that should oscillate against
the entry x_ij is stored at position (j,i).
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .cells import cell_counts
from .config import charge
from .cyclotomic import CyclotomicScalar, sqrt_rational_power
from .errors import (
    InvalidLevel,
    NotAdmissible,
    NotInDomain,
    NotRegularSemisimple,
)
from .matrices import mat
from .padic import val_p
from .qrational import QRational, geometric_tail
from .spaces import (
    WavePacket,
    e_minus_space,
    f_space,
    matrix_space_e,
    s_space,
    transposition,
    val_pair,
)


# ---------------------------------------------------------------------------
# results


class OrbitalResult:
    """A finite sum  sum_i c_i * R_i(T)  with c_i cyclotomic scalars and
    R_i rational functions of T = q^(-s)."""

    __slots__ = ("pairs", "metadata")

    def __init__(self, pairs, metadata=None):
        merged = {}
        for c, qr in pairs:
            if not isinstance(c, CyclotomicScalar):
                c = CyclotomicScalar.from_rational(c)
            if qr.is_zero():
                continue
            if qr in merged:
                merged[qr] = merged[qr] + c
            else:
                merged[qr] = c
        self.pairs = tuple(
            (c, qr)
            for qr, c in sorted(merged.items(), key=lambda kv: repr(kv[0]))
            if not c.is_zero()
        )
        self.metadata = dict(metadata or {})

    def value_at(self, t):
        """Exact value at a rational point T = t, as a cyclotomic scalar."""
        total = CyclotomicScalar.zero()
        for c, qr in self.pairs:
            total = total + c * CyclotomicScalar.from_rational(qr.evaluate(t))
        return total

    def value0(self):
        """The regularized value at s = 0 (T = 1)."""
        return self.value_at(Fraction(1))

    def as_qrational(self):
        """Collapse to a single QRational; requires rational coefficients."""
        total = QRational.const(0)
        for c, qr in self.pairs:
            r = c.as_rational()
            if r is None:
                raise NotInDomain("coefficients are not rational")
            total = total + QRational.const(r) * qr
        return total

    def substitute_reciprocal(self):
        return OrbitalResult(
            [(c, qr.substitute_reciprocal()) for c, qr in self.pairs],
            self.metadata,
        )

    def scale(self, c):
        if not isinstance(c, CyclotomicScalar):
            c = CyclotomicScalar.from_rational(c)
        return OrbitalResult(
            [(c * c0, qr) for c0, qr in self.pairs], self.metadata
        )

    def __eq__(self, other):
        """Equal iff each R_i carries the same coefficient on both sides:
        the pairs hold distinct R_i and no zero coefficient, so this is
        the difference being zero, decided without building it."""
        if not isinstance(other, OrbitalResult):
            return NotImplemented
        if len(self.pairs) != len(other.pairs):
            return False
        theirs = {qr: c for c, qr in other.pairs}
        for c, qr in self.pairs:
            d = theirs.get(qr)
            if d is None or not (c - d).is_zero():
                return False
        return True


# ---------------------------------------------------------------------------
# square-coordinate helpers


def _matrix_dim(space):
    k = isqrt(space.dim)
    if k * k != space.dim:
        raise NotInDomain("packet does not live on a square matrix space")
    return k


def packet_transpose(f):
    """g(X) = f(X^t) on a square-coordinate space whose pairing is the
    transposition map (trace pairing); centers, exponents and frequencies
    all move by the same index permutation.  The pairing is that weight-
    preserving permutation, so each permuted row is canonical."""
    perm = transposition(_matrix_dim(f.space))
    if f.space.pairing != perm:
        raise NotInDomain("space pairing is not the transposition")
    return WavePacket._of(f.space, [
        ((tuple([a[t] for t in perm]), tuple([C[t] for t in perm]),
          tuple([G[t] for t in perm])), c)
        for c, C, a, G in f.rows])


def _require_quadratic(eta):
    if not eta.is_quadratic():
        raise NotInDomain("the twisting character must be quadratic")


def _inv_vol(space, exps):
    """1 / vol_lattice(exps), as a cyclotomic scalar."""
    return sqrt_rational_power(space.F.p, -space.vol_exponent(exps))


# ---------------------------------------------------------------------------
# the regularized nilpotent orbital integral


def orbital_nilpotent(sign, f, eta):
    """Regularized integral of f over the regular nilpotent orbit through
    xi_+ (sign="plus") or xi_- (sign="minus"), with weight
    eta(det h) |det h|^s, as an OrbitalResult in T = q^(-s).

    Coordinate recipe on the plus side: the superdiagonal entries
    b_1..b_n carry the Tate factor with weight |b_l|^(l(-1+s)) and
    character eta^l; the entries strictly above the superdiagonal are
    free additive coordinates; all the rest are pinned to 0.  The minus
    side is the plus side of the transposed function with s -> -s.
    """
    if sign not in ("plus", "minus"):
        raise NotInDomain("sign must be 'plus' or 'minus'")
    _require_quadratic(eta)
    if sign == "minus":
        res = orbital_nilpotent("plus", packet_transpose(f), eta)
        out = res.substitute_reciprocal()
        out.metadata.update(res.metadata)
        out.metadata["sign"] = "minus"
        return out

    k = _matrix_dim(f.space)
    n = k - 1
    if n < 1:
        raise NotInDomain("need matrices of size at least 2")
    p = f.space.F.p
    q = Fraction(p)
    pair = f.space.pairing

    if eta.r_pi not in (Fraction(0), Fraction(1, 2)):
        raise NotInDomain("eta(p) must be a sign")
    eta_p = 1 if eta.r_pi == 0 else -1

    def idx(i, j):
        return i * k + j

    b_coords = [(l, idx(l - 1, l)) for l in range(1, n + 1)]
    x_coords = [idx(i, j) for i in range(k) for j in range(i + 2, k)]
    active = {t for _, t in b_coords} | set(x_coords)

    pairs = []
    for coeff, center, exps, freq in f.rows:
        for t in active:
            if freq[pair[t]][0]:
                raise NotInDomain(
                    "oscillation against an integrated coordinate"
                )
        # pinned coordinates: 0 must lie in the coset, so the center is 0
        if any(center[t][0] for t in range(k * k) if t not in active):
            continue
        cf = coeff
        qr = QRational.const(q ** -sum(exps[t] for t in x_coords))
        for l, t in b_coords:
            a = exps[t]
            beta = center[t]
            e = l % 2
            if not beta[0]:
                # full lattice p^a O: (1 - 1/q) sum_{v >= a} (s q^(l-1) T^l)^v
                if e and not eta.is_unramified:
                    break
                s = eta_p if e else 1
                qr = qr * QRational.const(1 - 1 / q) * geometric_tail(
                    s * q ** (l - 1), l, a)
            else:
                v = val_pair(beta, p)
                if e:
                    cf = cf * eta(Fraction(*beta))
                qr = qr * QRational.monomial(q ** (v * l - a), v * l)
        else:
            pairs.append((cf, qr))

    meta = {
        "n": n,
        "sign": "plus",
        "variable": "q^-s",
        "convergence": f"Re(s) > {1 - Fraction(1, n)}",
    }
    return OrbitalResult(pairs, meta)


# ---------------------------------------------------------------------------
# regular semisimple integrals, rank 1


def orbital_rs_n1(X, f, eta):
    """O(X, f, s) for 2x2 coordinates X = (x11, x12, x21, x22) regular
    semisimple (x12 x21 != 0), by exact enumeration of torus shells and
    unit cosets.  Returns an OrbitalResult in T = q^(-s); raises
    ScaleExceeded before enumerating when the unit cosets of all shells
    exceed the run's coset limit.

    The shells are the hull [lo, hi] of the rows' windows of v(h).  f is
    a sum of rows, each supported on its coset C + prod p^a_t O, so
    f(x(h)) != 0 puts x(h) in some row's coset.  At coordinate 1, x12 h
    lies in C_1 + p^a_1 O: a nonzero C_1 is a representative, so
    v(C_1) < a_1 and v(x12 h) = v(C_1); a zero C_1 gives v(x12 h) >= a_1.
    So v(h) >= s_1 - v(x12), s_1 = v(C_1) or a_1, with equality when
    C_1 != 0.  Likewise x21 / h gives v(h) <= v(x21) - s_2, with equality
    when C_2 != 0.  A row's window is the greatest of its lower bounds to
    the least of its upper bounds; f(x(h)) = 0 on every shell outside all
    the windows, so every nonzero shell lies in their hull, which lies in
    [min s_1 - v(x12), v(x21) - min s_2], the range of the support floors.
    Empty windows stay in the hull, so a packet whose centers are zero at
    both coordinates keeps that range, and the printed shells with it."""
    _require_quadratic(eta)
    if _matrix_dim(f.space) != 2:
        raise NotInDomain("rank-1 path needs 2x2 coordinates")
    X = tuple(Fraction(t) for t in X)
    _, x12, x21, _ = X
    if x12 == 0 or x21 == 0:
        raise NotRegularSemisimple("off-diagonal entries must not vanish")
    p = f.space.F.p
    if not f.rows:
        return OrbitalResult([], {"n": 1, "shells": []})

    # h enters x12 as x12 h and x21 as x21 / h: each row's window of v(h)
    v12, v21 = val_p(x12, p), val_p(x21, p)
    lows, highs = [], []
    for _, C, a, _ in f.rows:
        s1 = val_pair(C[1], p) if C[1][0] else a[1]
        s2 = val_pair(C[2], p) if C[2][0] else a[2]
        low, high = s1 - v12, v21 - s2
        lows.append(max(low, high) if C[2][0] else low)
        highs.append(min(low, high) if C[1][0] else high)
    lo, hi = min(lows), max(highs)
    shells = range(lo, hi + 1)
    sums = f.shell_integrals(X, ((1, x12, 1), (2, x21, -1)), eta, shells,
                             "rank-1 unit-coset budget")
    pairs = [(shell, QRational.monomial(1, v))
             for v, shell in zip(shells, sums) if not shell.is_zero()]
    return OrbitalResult(pairs, {"n": 1, "shells": [lo, hi], "variable": "q^-s"})


# ---------------------------------------------------------------------------
# regular semisimple integrals, rank 2 (cell enumeration)


def _delta_plus_2x2(x):
    """delta_+ = (A u, u) of the 3x3 coordinates x, as its entries
    ((Au)_0, u_0, (Au)_1, u_1) in row order, and Delta_+ = det delta_+."""
    a00, a01, u0, a10, a11, u1 = x[:6]
    au0, au1 = a00 * u0 + a01 * u1, a10 * u0 + a11 * u1
    return (au0, u0, au1, u1), au0 * u1 - u0 * au1


def _delta_plus_val_window(f, X, p):
    """Certify that Delta_+ has constant valuation on each term of supp f
    and return {v(Delta_+(X)) - vd} U entry bounds via the section
    delta_+: h = delta_+(Y) delta_+(X)^(-1), det h = Delta_+(Y)/Delta_+(X).
    delta_+(X) is 2x2, so its adjugate has its entries up to sign."""
    entries, dX = _delta_plus_2x2(X)
    if dX == 0:
        raise NotRegularSemisimple("Delta_+(X) = 0")
    vdX = val_p(dX, p)
    lo_adj = min(val_p(t, p) for t in entries if t != 0)

    windows = set()
    floors = []
    for _, C, exps, _ in f.rows:
        # the least valuation of each entry on this term's coset, as in
        # `WavePacket.support_floor`; the box floor reads all nine
        vals = [val_pair(x, p) if x[0] else a for x, a in zip(C, exps)]
        floors.append(min(vals))
        _, dY = _delta_plus_2x2([Fraction(n, d) for n, d in C])
        # Delta_+ is an integer-coefficient cubic in the six entries of A
        # and u alone: perturbing them by p^a_min moves it inside
        # p^(a_min + 2 min(0, c_min)), c_min their least valuation
        a_min, c_min = min(exps[:6]), min(vals[:6])
        bound = a_min + 2 * min(0, c_min)
        vdY = val_p(dY, p) if dY else bound
        if vdY >= bound:
            raise NotInDomain(
                "Delta_+ valuation is not certified constant on the support"
            )
        windows.add(vdY)
    return windows, vdX, lo_adj, min(floors)


def orbital_rs(X, f, eta):
    """O(X, f, s) for 3x3 coordinates (rank-2 group H = GL_2(F)) by additive
    cell enumeration of h over a box certified through the delta_+ section.

    The support of f must have certified-constant Delta_+ valuations; the
    determinant of h is then pinned to a finite window, the box of entry
    valuations is rigorous, and exactness is certified by computing at two
    granularities (`_orbital_rs_cells`).  The run's coset limit is charged
    for the nominal box of the larger pass, whatever the cell walk prunes."""
    _require_quadratic(eta)
    k = _matrix_dim(f.space)
    if k == 2:
        return orbital_rs_n1(X, f, eta)
    if k != 3:
        raise NotInDomain("cell enumeration is implemented for ranks 1 and 2")
    X = tuple(Fraction(t) for t in X)
    p = f.space.F.p
    if not f.rows:
        return OrbitalResult([], {"n": 2})
    windows, vdX, lo_adj, m0 = _delta_plus_val_window(f, X, p)
    det_window = {vd - vdX for vd in windows}
    mu = min(0, m0)
    lo = (m0 + mu) + lo_adj - vdX  # h = delta_+(Y) adj(delta_+(X)) / Delta_+(X)
    # every coordinate but x33, which diag(h, 1) fixes
    L = max(f.level(t) for t in range(8))
    M = max(lo + 1, L + max(0, -2 * lo), max(det_window) + 1)
    # the certificate pass at M + 1 is the larger one: refuse before either
    charge(p, [4 * (M + 1 - lo)], "rank-2 cell budget")
    first = _orbital_rs_cells(X, f, eta, lo, M, det_window)
    second = _orbital_rs_cells(X, f, eta, lo, M + 1, det_window)
    if not (first == second):
        raise NotInDomain("cell enumeration failed the refinement check")
    first.metadata.update({"n": 2, "box_floor": lo, "granularity": M,
                           "det_window": sorted(det_window)})
    return first


def _cell_volume(p, d, M):
    """The self-dual volume p^((-8M - 4d)/2) of p^M M_2(O) under psi of
    conductor d: `Space.vol_exponent` of the unit-weight 4-dim space,
    without building the space."""
    return sqrt_rational_power(p, -8 * M - 4 * d)


def _orbital_rs_cells(X, f, eta, lo, M, det_window):
    """One granularity pass of the rank-2 cell enumeration: the cells of h
    are p^M M_2(O) cosets of h = p^lo J with J an integer matrix in
    [0, p^(M - lo))^4, each weighted by eta(det h) |det h|^(-2) and
    collected by v(det h) in det_window.

    `cells.cell_counts` counts the cells of nonzero value on which terms
    of f pass their exact coset tests, per int key (v(det J), u0, term,
    n, k): psi's phase n / p^k of each passing term, and the unit part u0
    of det J mod p; its docstring proves that the classes it drops hold
    no such cell.  f at a cell is sum_t coeff_t e(n_t / p^k_t)
    (`cells.cell_value`), and eta is tame, so eta(det h) depends only on
    v(det J) and u0.  Per distinct key the pass builds eta's phase, the
    root of unity of the summed phase (`root_of_unity_ratio`, on ints) and
    the product; each cell has the volume `_cell_volume`.  So a pass adds
    exactly the nonzero cell values of a Fraction enumeration of the box.

    Bytes.  A CyclotomicScalar prints as its exponents k / n and
    coefficients c / den in lowest terms: an element of the group ring
    Q[Q/Z], on which + and * act as in that ring, with no stored conductor
    and no reduction modulo a cyclotomic polynomial.  So the printed sum
    depends neither on the order or grouping of the cells nor on the keys
    they are counted under ((n, k) and (pn, k + 1) name one phase).  The
    one step outside the ring, dropping a cell of value zero, runs the
    is_zero test of a cell-by-cell sum of f.evaluate values.

    Level.  The pass is the integral when f(Y), eta(det h) and |det h| are
    constant on each cell.  Lemma: let h be in p^lo M_2(O), vd = v(det h),
    M > max(lo, vd - lo), and the entries of the block A = (x11, x12; x21,
    x22), the column b = (x13, x23) and the row c = (x31, x32) of X in
    p^vA O, p^vb O and p^vc O.  On h + p^M M_2(O), v(det h) and
    det h / p^vd mod p are constant, and a coordinate t of A, b or c moves
    in p^(M - k_t) O, k_t = 2 vd - 3 lo - vA, -vb or 2 vd - 2 lo - vc (x33
    is fixed); so the cell is one of constancy once M >= level(t) + k_t
    for those t (`WavePacket.level`).  Proof: for E in p^M M_2(O),
    det(h + E) - det h = tr(adj(h) E) + det E is in p^(M + lo) O; h^-1 and
    h'^-1 = (h + E)^-1 are in p^(lo - vd) M_2(O) and differ by
    h'^-1 E h^-1, so h A h^-1, h b and c h^-1 move by E A h'^-1 +
    h A (h'^-1 - h^-1), E b and c (h'^-1 - h^-1); and vd >= 2 lo.  A cell
    with det J = 0 or v(det J) off the window keeps det J mod p^(M - lo),
    and M - lo exceeds every window value vd - 2 lo, so f vanishes there.
    orbital_rs's M meets the lemma when lo = 0, det_window = {0} and A, b,
    c are integral, as at every pinned input; elsewhere the M + 1 pass
    checks it."""
    p = f.space.F.p
    q = Fraction(p)
    counts = cell_counts(X, f, lo, M, det_window)
    vol = _cell_volume(p, f.space.psi.d, M)
    eta_phases = {}
    pairs = {}
    for (vj, u0, t, n, k), count in counts.items():
        vd = 2 * lo + vj
        r = eta_phases.get((vj, u0))
        if r is None:
            r = eta_phases[vj, u0] = eta.phase(u0 * q ** vd)
        # e(n / p^k + r) on ints: r = a / b is eta's phase
        pk, b = p ** k, r.denominator
        c = (f.rows[t][0]
             * CyclotomicScalar.root_of_unity_ratio(
                 n * b + r.numerator * pk, pk * b)
             * (count * q ** (2 * vd)))
        pairs[vd] = pairs.get(vd, CyclotomicScalar.zero()) + c
    out = []
    for vd, c in pairs.items():
        out.append((c * vol, QRational.monomial(1, vd)))
    return OrbitalResult(out, {"variable": "q^-s"})


# ---------------------------------------------------------------------------
# the descent pipeline, rank 1


def varrho_point(x1, y1, y0):
    """Coordinates of the section point varrho(x, y) = tau [[x1, y1], [1, y0]]
    on the 2x2 symmetric-space coordinates."""
    return (Fraction(x1), Fraction(y1), Fraction(1), Fraction(y0))


def f_natural(ext, psi, r):
    """The Lie-algebra descent of the normalized congruence pair at level r:
    a multiple of the indicator of p^r s(O).

    The group pair is f_i = vol(1 + p^r M(O_E))^(-1) 1_{1+p^r M(O_E)}; the
    descent integrates f1~ * f2 over the split subgroup against eta' and
    lands on the tau-part coordinates."""
    if r < 1:
        raise InvalidLevel("congruence level must be >= 1")
    c = _inv_vol(matrix_space_e(ext, psi, 2), (r,) * 8) * f_space(
        ext.F, psi, 4
    ).vol_lattice((r,) * 4)
    return WavePacket.indicator(s_space(ext, psi, 2), r).scale(c)


def _phi_minus_packet(phi_data):
    """The minus-coordinate factor of a dagger scalar, carrying the whole
    coefficient; the plus factor is the plain indicator of p^m O_F."""
    if phi_data.kind != "scalar":
        raise NotAdmissible("need a dagger scalar")
    ext, psi, m = phi_data.ext, phi_data.psi, phi_data.m
    # the minus coordinate has the same weight and lattices on both
    # spaces, so its part of a canonical row is a canonical row
    out = []
    for c, C, a, G in phi_data.packet.rows:
        if C[0][0] or a[0] != m or G[0][0]:
            raise NotAdmissible("plus factor is not the level-m indicator")
        out.append((((a[1],), (C[1],), (G[1],)), c))
    return WavePacket._of(e_minus_space(ext, psi, 1), out)


def c_psi_plus(ext, psi, m):
    """int phi+ dx for the normalized plus factor: the self-dual volume of
    p^m O_F."""
    return f_space(ext.F, psi, 1).vol_lattice((m,))


# the germ defaults of the CLI and the suites: points (x1, y1, y0) of varrho
GERM_POINTS = ((0, 1, 0), (1, 1, 0), (0, 1, 1), (1, 1, 1), (0, 2, 0),
               (3, 1, 0))


def default_germ_level(m):
    """The descent level r of a level-m dagger scalar when none is given."""
    return 2 * m + 1


def _check_descent_level(m, r):
    """The descent of a level-m dagger scalar needs the level r >= 2m."""
    if r < max(2 * m, m + 1):
        raise InvalidLevel("need r >= 2m for translation invariance")


def f_psi_natural(ext, psi, phi_data, r):
    """The descent of the degenerate-Whittaker average of the level-r
    congruence pair against the dagger scalar phi.

    Product form on the tau-part coordinates: indicator of p^r in the
    (1,1), (2,1), (2,2) slots and the smoothed reflected minus factor
    int phi-(w) 1_{p^r}(x12 + w) dw in the (1,2) slot, all times
    c(Psi+) and the descent normalization."""
    m = phi_data.m
    _check_descent_level(m, r)
    base = f_natural(ext, psi, r)
    (c0, _, _, _), = base.rows
    phi_minus = _phi_minus_packet(phi_data)
    ind = WavePacket.indicator(e_minus_space(ext, psi, 1), (r,))
    slot = ind.convolve_add(phi_minus.reflect())
    cp = c_psi_plus(ext, psi, m)
    zero = (0, 1)
    # the (1,2) slot and its paired position (2,1) have the weight and the
    # lattices of the minus coordinate of `slot`, so the rows are canonical
    return WavePacket._of(s_space(ext, psi, 2), [
        (((r, aw, r, r), (zero, w0, zero, zero),
          # the phase against x12 sits at the paired position (2,1)
          (zero, zero, fw, zero)), c0 * c2 * cp)
        for c2, (w0,), (aw,), (fw,) in slot.rows])


def mu_via_nilpotent(ext, psi, eta, phi_data, r):
    """The same germ constant through the orbital-integral machinery: the
    regularized minus-nilpotent integral of the Fourier transform of the
    degenerate-Whittaker descent, at s = 0."""
    g = f_psi_natural(ext, psi, phi_data, r).fourier()
    return orbital_nilpotent("minus", g, eta).value0()


def germ_constant_check(ext, psi, eta, eta_prime, phi_data, r, points):
    """Local constancy of the regular semisimple orbital integral near the
    minus nilpotent: O(varrho(x, y), ghat, 0) at each sample point against
    the germ constant mu, with the transfer factor eta'(Delta_-) recorded
    per point (constant on the section slice)."""
    from .symspace import transfer_factor_lie

    g = f_psi_natural(ext, psi, phi_data, r).fourier()
    # the charged shell sums run before mu, which nothing charges
    rows = []
    for (x1, y1, y0) in points:
        X = varrho_point(x1, y1, y0)
        val = orbital_rs_n1(X, g, eta).value0()
        tf = transfer_factor_lie(
            ext,
            mat([[ext.scalar(0, X[0]), ext.scalar(0, X[1])],
                 [ext.scalar(0, X[2]), ext.scalar(0, X[3])]]),
            eta_prime,
            sign="minus",
        )
        rows.append(((x1, y1, y0), val, tf))
    mu = orbital_nilpotent("minus", g, eta).value0()
    out = [{"point": point, "value": val, "transfer_factor": tf,
            "equal": (val - mu).is_zero()} for point, val, tf in rows]
    return {"mu": mu, "points": out,
            "all_equal": all(pt["equal"] for pt in out)}


def spherical_rhs(ext, psi, eta, phi_data, omega_tau=1):
    """The spectral side of the rank-1 germ identity: omega(tau) times the
    shell character sum of the full Fourier transform of the dagger scalar
    along the minus axis, charged before the sum,

        omega(tau) * sum_{v(y) = s0} phihat((0, -y)) eta(y) d*y."""
    _require_quadratic(eta)
    from .dagger import shell_valuation

    if omega_tau not in (1, -1):
        raise NotInDomain("omega(tau) must be a sign for a quadratic"
                          " central character trivial on F^*")
    s0 = shell_valuation(ext, psi, phi_data.m)
    hat = phi_data.packet.fourier()
    # y enters the minus coordinate as -y
    (total,) = hat.shell_integrals((0, 0), ((1, -1, 1),), eta, [s0],
                                   "rank-1 unit-coset budget")
    return total * Fraction(omega_tau)


def theorem_germ_gl(ext, psi, eta, phi_data, r, omega_tau=1):
    """The rank-1 germ identity: the spectral shell sum equals
    |tau|_E^((d1+d2)/2) omega(tau) mu with both exponents 0 in rank 1.
    The two sides are computed by disjoint routes (a full 2-dimensional
    Fourier transform and shell sum against the orbital-integral
    machinery with all descent constants)."""
    # the level rule first, then the charged shell sum of the spectral
    # side, then mu, which nothing charges
    _check_descent_level(phi_data.m, r)
    lhs = spherical_rhs(ext, psi, eta, phi_data, omega_tau=omega_tau)
    mu = mu_via_nilpotent(ext, psi, eta, phi_data, r)
    rhs = mu * Fraction(omega_tau)
    return {
        "lhs": lhs,
        "rhs": rhs,
        "mu": mu,
        "tau_norm_exponent": Fraction(0),
        "equal": (lhs - rhs).is_zero(),
    }
