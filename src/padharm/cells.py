"""The cell walk of the rank-2 regular semisimple orbital integral.

`orbital.orbital_rs` integrates over h in GL_2(F) by cells: the cosets
h + p^M M_2(O) with h = p^lo J in a box of integer matrices J.  This
module counts, on ints, the cells on which terms of the packet pass
their coset tests, by a depth-first walk of J's residues that drops a
residue class as soon as no cell in it can pass;
`orbital._orbital_rs_cells` builds the scalars from the counts.
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import gcd, lcm

from .cyclotomic import CyclotomicScalar
from .padic import strip_p, val_p

_NO_PHASE = (0, 0)


def cell_value(f, hits):
    """f at a cell on which the terms of `hits`, (index, (n, k)) pairs in
    term order with psi's phase n / p^k, pass: the sum f.evaluate builds
    there."""
    p = f.space.F.p
    total = CyclotomicScalar.zero()
    for t, (n, k) in hits:
        total = total + f.rows[t][0] * CyclotomicScalar.root_of_unity_ratio(
            n, p ** k)
    return total


def cell_counts(X, f, lo, M, det_window):
    """The cells J in [0, p^e)^4, e = M - lo, of one pass on which some
    term of f passes its coset test, with v(det h) = 2 lo + v(det J) in
    det_window, counted per int key (v(det J), u0, t, n, k): u0 is the
    unit part of det J mod p, and each passing term t adds 1 under psi's
    phase n / p^k at the cell, 0 <= n < p^k ((0, 0) for a term with no
    frequency, or with S = 0 or k <= 0 below).  One term's value
    coeff_t e(n / p^k) is never zero; a cell on which several pass is
    dropped when its value (`cell_value`) is zero in Q(zeta).  No
    Fraction is built per cell.

    Integer model.  With X = Xi / D (D the positive common denominator of
    the coordinates) and L = |lo|, every coordinate of
    Y = diag(h, 1) X diag(h, 1)^(-1) is an integer N_t over the common
    denominator Den = D det(J) p^L.  The coset test v(Y_t - c_t) >= a_t of
    a packet term with center c_t = cn_t / cd_t becomes the divisibility
    (N_t cd_t - cn_t Den) % p^k == 0 with k = a_t + v(cd_t) + v(Den), and
    holds outright when k <= 0.  The pairing <freq, Y> of a term is
    S / (G Den) with S = sum_j g_j N_j, where g_j / G are the weighted
    frequencies weights[i] freq[i] at j = pairing[i] over their common
    denominator G.  The p-part of G Den is p^w with
    w = v(G) + v(D) + v(det J) + L, so psi's phase is frac_part_ratio's
    formula on ints: with G Den = p^w U and k = w - d, the phase is
    n / p^k with n = S U^-1 mod p^k, counted as the pair (n, k) when
    S != 0 and k > 0.  The pair need not be in lowest terms (p may divide
    n); n / p^k is the phase all the same.

    Pruning.  J is found one residue level at a time, depth first: the
    classes below r mod p^l are r + p^l d mod p^(l + 1), d in [0, p)^4.
    Lemma: if, for every det-valuation vj that a J = r mod p^l can have,
    every term fails some test modulo p^min(k(vj), l), then no cell below
    r passes.  Proof: det J and each N_t cd_t - cn_t D p^L det J are
    integer polynomials in the entries of J, so modulo p^l their values
    depend on r only, and divisibility by p^k implies divisibility by
    p^min(k, l).  When p^l does not divide det r, every J = r mod p^l has
    v(det J) = v(det r); otherwise v(det J) >= l, so the window values
    from l up are the candidates.  Such a class is dropped with all it
    contains; at the last level each cell runs the full test.  Every
    passing cell is counted once, as by a walk over the whole box, and
    the walk holds at most e p^4 classes."""
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
            return _NO_PHASE
        g, k0, uGD = ph
        S = sum(gj * N[j] for j, gj in g)
        k = k0 + vj
        if not S or k <= 0:
            return _NO_PHASE
        pk = p ** k
        return S * pow(uGD * u, -1, pk) % pk, k

    counts = Counter()
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
                    candidates = tests.get(val_p(dl, p))
                else:
                    candidates = [cs for vj, c in tests.items() if vj >= l
                                  for cs in c]
                if not candidates:
                    continue
                N = coords(j11, j12, j21, j22, dJ)
                for checks in candidates:
                    for t, cd, cnD, m in checks:
                        if (N[t] * cd - cnD * dJ) % (m if m < pl else pl):
                            break
                    else:
                        stack.append((l, (j11, j12, j21, j22)))
                        break
                continue
            if dJ == 0:
                # singular J: v(det J) is past the window by the choice of M
                continue
            vj, u = strip_p(dJ, p)
            compiled = tests.get(vj)
            if compiled is None:
                continue
            N = coords(j11, j12, j21, j22, dJ)
            hits = []
            for t, checks in enumerate(compiled):
                for s, cd, cnD, m in checks:
                    if (N[s] * cd - cnD * dJ) % m:
                        break
                else:
                    hits.append((t, phase(t, N, vj, u)))
            if not hits or len(hits) > 1 and cell_value(f, hits).is_zero():
                continue
            for t, (n, k) in hits:
                counts[vj, u % p, t, n, k] += 1
    return counts
