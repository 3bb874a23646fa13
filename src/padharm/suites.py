"""Named verification suites.

Each suite re-derives an identity from scratch (often against a
brute-force or closed-form oracle) at its own fixed p, N and delta, and
returns `(failures, stats)`.  `SUITES` maps each name to its suite and
the parameters it takes; `run_suite` checks those and builds the report

    {"suite": name, "passed": bool, "failures": [...], "stats": {...}}

The CLI `verify-suite` command, the acceptance tests and CI all go
through `run_suite`.
"""

import random
from fractions import Fraction

from .cyclotomic import CyclotomicScalar
from .config import RunConfig, charge, read_int
from .errors import DomainError, NotRegularSemisimple, SchemaError
from .qrational import QRational, geometric_tail
from .matrices import (
    mat_mul,
    FractionRing,
    IntModRing,
    Delta_minus,
    Delta_plus,
    conjugate,
    delta_plus,
    gl_n_Fp,
    identity,
    invariants_of,
    iota,
    iota_inverse,
    iota_prime_inverse,
    mat,
    nilpotent_cone_Fp,
    nu_plus,
    orbit_of,
    section_sigma,
    section_sigma_prime,
    triangular_check,
    xi_minus,
    xi_plus,
)
from .symspace import (
    match_side,
    separating_forms,
    tau_scale,
    transfer_factor_lie,
    transfer_factor_group,
    xi_minus_s,
)
from .spaces import (
    WavePacket,
    e_space,
    f_space,
    matrix_space_f,
    s_space,
)
from .dagger import (
    compactness_W_closed,
    compactness_W_direct,
    is_admissible_column,
    is_admissible_matrix,
    is_admissible_scalar,
    make_dagger_column,
    make_dagger_matrix,
    make_dagger_scalar,
)
from .orbital import (
    germ_constant_check,
    orbital_nilpotent,
    orbital_rs,
    theorem_germ_gl,
)
from . import lfactors


# ---------------------------------------------------------------------------
# sections and isomorphisms


def suite_section_identities(n=3, samples=500, seed=0):
    """pi o sigma = id, delta_+ o sigma = 1, and both chart round trips,
    on random data over Z/p^5 for p = 3, 5 at every rank up to n."""
    Npow = 5
    failures = []
    checked = 0
    for rank in range(1, n + 1):
        for p in (3, 5):
            R = IntModRing(p, Npow)
            mod = p ** Npow
            # an int seed, not a tuple's hash: Py_hash_t is 32-bit on
            # some builds, and the samples must not depend on the build
            rng = random.Random(seed * 1000003 + rank * 101 + p)
            one = identity(R, rank)

            def rand_gl():
                # L*D*U sample: unit leading minors, so every pivot of the
                # Z/p^N Gaussian elimination is invertible
                low = _unipotent_from(
                    R, rank, [rng.randrange(mod)
                              for _ in range(rank * (rank - 1) // 2)],
                    upper=False)
                up = _unipotent_from(
                    R, rank, [rng.randrange(mod)
                              for _ in range(rank * (rank - 1) // 2)],
                    upper=True)
                diag = []
                while len(diag) < rank:
                    c = rng.randrange(1, mod)
                    if c % p:
                        diag.append(c)
                d = mat([[R.coerce(diag[i]) if i == j else R.zero()
                          for j in range(rank)] for i in range(rank)])
                return mat_mul(mat_mul(low, d), up)

            def red_vec(v):
                return tuple(int(x) % mod for x in v)

            def red_mat(X):
                return tuple(tuple(int(x) % mod for x in row) for row in X)

            for _ in range(samples):
                a = tuple(rng.randrange(mod) for _ in range(rank))
                b = tuple(rng.randrange(mod) for _ in range(rank + 1))
                tag = f"n={rank} p={p} a={a} b={b}"
                X0 = section_sigma(R, a, b)
                ga, gb = invariants_of(R, X0)
                if (red_vec(ga), red_vec(gb)) != (a, b):
                    failures.append(f"pi o sigma != id at {tag}")
                if red_mat(delta_plus(R, X0)) != red_mat(one):
                    failures.append(f"delta_+ o sigma != 1 at {tag}")
                h = rand_gl()
                X = iota(R, h, a, b)
                h2, (a2, b2) = iota_inverse(R, X)
                if (red_mat(h2), red_vec(a2), red_vec(b2)) != (
                        red_mat(h), a, b):
                    failures.append(f"plus-chart round trip failed at {tag}")
                Xp = conjugate(R, h, section_sigma_prime(R, a, b))
                h3, (a3, b3) = iota_prime_inverse(R, Xp)
                if (red_vec(a3), red_vec(b3)) != (a, b) or red_mat(
                        conjugate(R, h3, section_sigma_prime(R, a3, b3))
                ) != red_mat(Xp):
                    failures.append(f"prime-chart round trip failed at {tag}")
                checked += 1
    return failures, {"samples": checked,
                      "n_values": list(range(1, n + 1)),
                      "p_values": [3, 5], "N": Npow}


# ---------------------------------------------------------------------------
# triangular morphisms


def _unipotent_from(R, n, coords, upper):
    """The n x n unipotent matrix, upper or lower triangular, whose
    off-diagonal entries are `coords` in row-major order."""
    coords = iter(coords)

    def entry(i, j):
        if i == j:
            return R.one()
        if (j > i) == upper:
            return R.coerce(next(coords))
        return R.zero()

    return mat([[entry(i, j) for j in range(n)] for i in range(n)])


def suite_triangularity(samples=10000, seed=0):
    """The three coordinate maps are bijections of (Z/9)^m with fiber
    size one: the invariant chart pi o sigma', the lower-unipotent cell
    map nu'_(a,b), and the upper-unipotent cone map nu_+."""
    p, Npow = 3, 2
    R = IntModRing(p, Npow)
    mod = p ** Npow
    rng = random.Random(seed)
    checks = []  # (label, stats key, map, number of coordinates m)

    # pi o sigma' on invariants, m = 2n+1
    for n in (1, 2):
        def phi_inv(x, n=n):
            a, b = x[:n], x[n:]
            a2, b2 = invariants_of(R, section_sigma_prime(R, a, b))
            return a2 + b2

        checks.append((f"pi o sigma' n={n}", f"pi_sigma_prime_n{n}",
                       phi_inv, 2 * n + 1))

    # nu_+ : u -> entries of u xi_+ u^-1 above the superdiagonal
    for n in (2, 3, 4):
        pos = [(i, j) for i in range(n + 1) for j in range(i + 2, n + 1)]

        def phi_nu_plus(x, n=n, pos=pos):
            Y = nu_plus(R, _unipotent_from(R, n, x, upper=True))
            return tuple(Y[i][j] for i, j in pos)

        checks.append((f"nu_+ n={n}", f"nu_plus_n{n}",
                       phi_nu_plus, n * (n - 1) // 2))

    # nu'_(a,b) : lower unipotent -> below-diagonal coordinates of the slice
    for n in (2, 3):
        a = tuple(rng.randrange(mod) for _ in range(n))
        b = tuple(rng.randrange(mod) for _ in range(n + 1))
        sig = section_sigma_prime(R, a, b)
        pos = [(i, j) for i in range(1, n) for j in range(1, i + 1)]

        def phi_nu_prime(x, n=n, sig=sig, pos=pos):
            Y = conjugate(R, _unipotent_from(R, n, x, upper=False), sig)
            return tuple(Y[i][j] for i, j in pos)

        checks.append((f"nu'_(a,b) n={n}", f"nu_prime_n{n}",
                       phi_nu_prime, n * (n - 1) // 2))

    failures, stats = [], {}
    for label, key, phi, m in checks:
        try:
            stats[key] = triangular_check(phi, m, p, Npow,
                                          samples=samples, seed=seed)
        except ArithmeticError as exc:
            failures.append(f"{label}: {exc}")
    return failures, stats


# ---------------------------------------------------------------------------
# brute-force regular nilpotent classification


def suite_nilpotent_orbits():
    """Over F_3 and F_5, n = 2: the nilpotent cone splits as
    orbit(xi_+) = {Delta_+ != 0}, orbit(xi_-) = {Delta_- != 0}, and an
    irregular remainder, by exhaustive enumeration."""
    failures = []
    stats = {}
    for p in (3, 5):
        R = IntModRing(p, 1)
        cone = nilpotent_cone_Fp(p)
        group = gl_n_Fp(p, 2)

        def key(X):
            return tuple(tuple(int(e) % p for e in row) for row in X)

        plus = {key(X) for X in cone if Delta_plus(R, X) % p}
        minus = {key(X) for X in cone if Delta_minus(R, X) % p}
        rest = {key(X) for X in cone} - plus - minus
        orb_plus = orbit_of(R, xi_plus(R, 3), group)
        orb_minus = orbit_of(R, xi_minus(R, 3), group)
        if plus != orb_plus:
            failures.append(f"p={p}: Delta_+ locus != orbit(xi_+)")
        if minus != orb_minus:
            failures.append(f"p={p}: Delta_- locus != orbit(xi_-)")
        if plus & minus:
            failures.append(f"p={p}: Delta_+ and Delta_- loci meet")
        for X in cone:
            if key(X) in rest:
                if Delta_plus(R, X) % p or Delta_minus(R, X) % p:
                    failures.append(f"p={p}: remainder is regular")
                    break
        stats[f"p{p}"] = {
            "cone": len(plus) + len(minus) + len(rest),
            "plus_orbit": len(plus),
            "minus_orbit": len(minus),
            "irregular": len(rest),
        }
    return failures, stats


# ---------------------------------------------------------------------------
# Fourier calculus


def _random_packet(space, rng, p):
    terms = []
    dim = space.dim
    for _ in range(rng.randrange(1, 4)):
        coeff = CyclotomicScalar.from_rational(
            Fraction(rng.randrange(-4, 5) or 1, rng.randrange(1, 4)))
        center = tuple(Fraction(rng.randrange(-p, p + 1), p)
                       for _ in range(dim))
        # wide lattices on high-dimensional spaces make the exact equality
        # refinement exponentially large; keep exps >= 0 when dim > 2
        lo = 0 if dim > 2 else -1
        exps = tuple(rng.randrange(lo, 2) for _ in range(dim))
        freq = tuple(Fraction(rng.randrange(-p, p + 1), p)
                     for _ in range(dim))
        terms.append((coeff, center, exps, freq))
    return WavePacket(space, terms)


def suite_fourier(samples=200, seed=0):
    """Double Fourier transform = reflection on random wave packets, and
    the self-duality of the unit lattice for an unramified character."""
    config = RunConfig()
    F, psi, ext = config.field(), config.psi(), config.ext()
    spaces = [
        f_space(F, psi, 1), f_space(F, psi, 2),
        f_space(F, psi, 3), f_space(F, psi, 4),
        e_space(ext, psi, 1), e_space(ext, psi, 2),
        matrix_space_f(F, psi, 2), s_space(ext, psi, 1),
    ]
    rng = random.Random(seed)
    failures = []
    for i in range(samples):
        sp = spaces[i % len(spaces)]
        f = _random_packet(sp, rng, config.p)
        if not f.fourier().fourier().equals(f.reflect()):
            failures.append(f"double transform != reflection (sample {i})")
    unit = WavePacket.indicator(f_space(F, psi, 1), (0,))
    if not unit.fourier().equals(unit):
        failures.append("fourier(1_O) != 1_O for unramified psi")
    return failures, {"samples": samples, "spaces": len(spaces)}


# ---------------------------------------------------------------------------
# nilpotent orbital integrals


def suite_oi_nilpotent():
    """n = 1 closed form against an independent geometric-series oracle;
    n = 2 pole located exactly at s = 1/2 within [0, 1)."""
    failures = []
    config = RunConfig()
    F, psi, eta = config.field(), config.psi(), config.eta()
    q = Fraction(config.p)

    f1 = WavePacket.indicator(matrix_space_f(F, psi, 2), 0)
    got1 = orbital_nilpotent("plus", f1, eta).as_qrational()
    # oracle: the weight eta(b)|b|^s over v(b) >= 0 is a geometric series
    # in (eta(pi) T), each valuation shell having d*-measure 1 - 1/q
    oracle = QRational.const(1 - 1 / q) * geometric_tail(-1, 1, 0)
    if got1 != oracle:
        failures.append("n=1 closed form disagrees with the series oracle")

    f2 = WavePacket.indicator(matrix_space_f(F, psi, 3), 0)
    res2 = orbital_nilpotent("plus", f2, eta)
    qr2 = res2.as_qrational()
    # poles inside s in [0, 1), i.e. T in (1/q, 1]: exactly one, at s = 1/2
    n_real = qr2.real_pole_count(Fraction(1, q), 1)
    half_order = qr2.pole_order_at_sqrt(Fraction(1, q), +1)
    if n_real != 1:
        failures.append(f"n=2: expected one real pole in (1/q, 1], got {n_real}")
    if half_order != 1:
        failures.append(f"n=2: pole order at s=1/2 is {half_order}, expected 1")
    try:
        qr2.evaluate(Fraction(1))  # s = 0 is regular
    except DomainError:
        failures.append("n=2: unexpected pole at s=0")
    return failures, {"n1": repr(got1), "n2": repr(qr2),
                      "n2_pole_order_at_half": half_order}


# ---------------------------------------------------------------------------
# transfer factors and matching


def _rand_ext_scalar(ext, rng):
    return ext.scalar(Fraction(rng.randrange(-3, 4)),
                      Fraction(rng.randrange(-3, 4)))


def suite_transfer(samples=100, seed=0):
    """Omega(h1 gamma h2) = eta(h2) Omega(gamma) on random group pairs at
    n = 1, plus the matching dichotomy (exactly one Hermitian form, stable
    under conjugation) over a grid of invariant classes."""
    config = RunConfig()
    p, ext = config.p, config.ext()
    eta, eta_prime = config.eta(), config.eta_prime()
    rng = random.Random(seed)
    failures = []
    done = 0
    while done < samples:
        gamma1 = mat([[_rand_ext_scalar(ext, rng)]])
        gamma2 = mat([[_rand_ext_scalar(ext, rng) for _ in range(2)]
                      for _ in range(2)])
        t = Fraction(rng.choice([1, 2, 3, p, 2 * p]))
        g1 = Fraction(rng.choice([1, 2, p]))
        g2 = mat([[Fraction(rng.randrange(-2, 3)) for _ in range(2)]
                  for _ in range(2)])
        dg2 = g2[0][0] * g2[1][1] - g2[0][1] * g2[1][0]
        if dg2 == 0:
            continue
        try:
            base = transfer_factor_group(ext, gamma1, gamma2, eta_prime)
            ts = ext.scalar(t)
            g1s = ext.scalar(g1)
            gamma1b = mat([[ts * gamma1[0][0] * g1s]])
            emb = mat([[ts, ext.zero()], [ext.zero(), ext.one()]])
            g2e = mat([[ext.scalar(x) for x in row] for row in g2])
            gamma2b = mat_mul(mat_mul(emb, gamma2), g2e)
            moved = transfer_factor_group(ext, gamma1b, gamma2b, eta_prime)
        except DomainError:
            continue
        if not (moved - base * eta(dg2)).is_zero():
            failures.append(
                f"equivariance failed: gamma1={gamma1}, t={t}, det g2={dg2}")
        done += 1

    # matching dichotomy over invariant classes (a; b0, b1)
    forms = separating_forms(ext, eta)
    Rf = FractionRing()
    grid = [Fraction(u) * Fraction(p) ** v for u in (1, 2) for v in (0, 1)]
    classes = 0
    for a in [Fraction(0)] + grid:
        for b0 in [Fraction(0)] + grid:
            for b1 in grid + [-g for g in grid]:
                Xf = section_sigma(Rf, (a,), (b0, b1))
                X = tau_scale(ext, Xf)
                try:
                    side = match_side(ext, X, eta, forms)
                except NotRegularSemisimple:
                    continue
                except DomainError as exc:
                    failures.append(f"dichotomy failed at {(a, b0, b1)}: {exc}")
                    continue
                # conjugation invariance under diag(c, 1)
                c = Fraction(2)
                Xc = mat([[Xf[0][0], Xf[0][1] * c],
                          [Xf[1][0] / c, Xf[1][1]]])
                side2 = match_side(ext, tau_scale(ext, Xc), eta, forms)
                if side2 != side:
                    failures.append(
                        f"matching not conjugation-invariant at {(a, b0, b1)}")
                classes += 1
    return failures, {"equivariance_samples": done,
                      "invariant_classes": classes}


# ---------------------------------------------------------------------------
# dagger data and compactness


def suite_dagger():
    """Generated dagger data pass the definitional predicates for m = 1, 2;
    the direct smoothed Whittaker evaluation equals its closed form on a
    grid of 20 points."""
    config = RunConfig()
    p, psi, ext, eta = config.p, config.psi(), config.ext(), config.eta()
    failures = []
    for m in (1, 2):
        theta = make_dagger_scalar(ext, psi, m)
        if not is_admissible_scalar(ext, psi, m, theta.packet):
            failures.append(f"scalar m={m} fails its predicate")
        for k in (2, 3):
            col = make_dagger_column(ext, psi, m, k)
            if not is_admissible_column(col):
                failures.append(f"column m={m} k={k} fails its predicate")
        matd = make_dagger_matrix(ext, psi, m, 2)
        if not is_admissible_matrix(matd):
            failures.append(f"matrix m={m} fails its predicate")

    theta = make_dagger_scalar(ext, psi, 1)
    ys = []
    for u in (1, 2, 4, 5, 7):
        for v in (-2, -1, 0, 1):
            ys.append(Fraction(u) * Fraction(p) ** v)
    for y in ys:
        direct = compactness_W_direct(ext, psi, eta, theta, y)
        closed = compactness_W_closed(ext, psi, eta, theta, y)
        if not (direct - closed).is_zero():
            failures.append(f"compactness identity fails at y={y}")
    return failures, {"m_values": [1, 2], "points": len(ys)}


# ---------------------------------------------------------------------------
# germ identities


GERM_POINTS = ((0, 1, 0), (1, 1, 0), (0, 1, 1), (1, 1, 1), (0, 2, 0),
               (3, 1, 0))


def suite_germ(m=1, r=3):
    """Local constancy near the minus nilpotent: the regular semisimple
    integrals of the smoothed descent agree at every point of
    GERM_POINTS and equal the germ constant, with the transfer factor
    constant on the slice and equal to its value at the nilpotent
    representative."""
    delta = 2
    config = RunConfig({"delta": delta})
    psi, ext = config.psi(), config.ext()
    eta, eta_prime = config.eta(), config.eta_prime()
    phi = make_dagger_scalar(ext, psi, m)
    rep = germ_constant_check(ext, psi, eta, eta_prime, phi, r,
                              list(GERM_POINTS))
    failures = []
    if not rep["all_equal"]:
        bad = [pt["point"] for pt in rep["points"] if not pt["equal"]]
        failures.append(f"orbital integral differs from mu at {bad}")
    tf_xi = transfer_factor_lie(ext, xi_minus_s(ext, 2), eta_prime,
                                sign="minus")
    for pt in rep["points"]:
        if not (pt["transfer_factor"] - tf_xi).is_zero():
            failures.append(
                f"transfer factor not constant on the slice at {pt['point']}")
    return failures, {"mu": repr(rep["mu"]), "points": len(rep["points"]),
                      "delta": delta, "m": m, "r": r}


def suite_theorem_germ_gl(m=1, r=3):
    """The rank-1 spectral/geometric germ identity for the trivial central
    datum and one nontrivial sign."""
    config = RunConfig()
    psi, ext, eta = config.psi(), config.ext(), config.eta()
    phi = make_dagger_scalar(ext, psi, m)
    failures = []
    stats = {}
    for omega_tau in (1, -1):
        rep = theorem_germ_gl(ext, psi, eta, phi, r, omega_tau=omega_tau)
        stats[f"omega_{omega_tau}"] = {
            "lhs": repr(rep["lhs"]), "rhs": repr(rep["rhs"]),
            "equal": rep["equal"],
        }
        if not rep["equal"]:
            failures.append(f"identity fails for omega(tau) = {omega_tau}")
    return failures, stats


# ---------------------------------------------------------------------------
# local factors


def suite_local_factors():
    """Point count vs. L-factor product for the unitary hyperspecial
    volume, the unramified bookkeeping identity, and kappa = 1 on
    all-unramified data."""
    failures = []
    for m in range(1, 5):
        pc = QRational.monomial(1, m * m) * lfactors.unitary_point_count(m)
        if pc != lfactors.delta_constant(m).inverse():
            failures.append(f"q^(-m^2)|U_m| != Delta_m^(-1) at m={m}")
        if lfactors.hyperspecial_volume(m, via="points") != \
                lfactors.hyperspecial_volume(m, via="lfactor"):
            failures.append(f"hyperspecial volume routes differ at m={m}")
        if lfactors.vol_gl(m) * _zeta_prod(m) != QRational.const(1):
            failures.append(f"vol(GL_m(O)) zeta product != 1 at m={m}")
    for n in (1, 2):
        rep = lfactors.unramified_identity(n)
        if not (rep["I_is_one"] and rep["J_is_L1eta"] and rep["identity"]
                and rep["hyperspecial_consistent"]):
            failures.append(f"unramified identity fails at n={n}")
    config = RunConfig()
    psi, ext = config.psi(), config.ext()
    eta, eta_prime = config.eta(), config.eta_prime()
    one = CyclotomicScalar.one()
    for n in range(1, 5):
        k = lfactors.kappa(n, ext, eta, eta_prime, psi)
        if not (k - one).is_zero():
            failures.append(f"kappa != 1 on unramified data at n={n}")
    return failures, {"m_max": 4, "kappa_n_max": 4}


def _zeta_prod(m):
    out = QRational.const(1)
    for i in range(2, m + 1):
        out = out * lfactors.zeta_local(i)
    return out


# ---------------------------------------------------------------------------
# local constancy of regular semisimple integrals, rank 2


def suite_local_constancy(pairs=10, seed=0):
    """O(sigma(x), f) at n = 2 is unchanged when the invariants x move by
    p^level, level = 3, for f an indicator of a unit-scale coset around a
    regular base point (so supp f stays inside the Delta_+ != 0 locus)."""
    level = 3
    config = RunConfig()
    p, psi, eta = config.p, config.psi(), config.eta()
    Rf = FractionRing()

    def sigma_coords(a, b):
        S = section_sigma(Rf, a, b)
        return tuple(Fraction(e) for row in S for e in row)

    a0, b0 = (1, 2), (1, 1, 2)
    Y0 = sigma_coords(a0, b0)
    f = WavePacket.indicator(matrix_space_f(config.field(), psi, 3), 1,
                             center=Y0)
    rng = random.Random(seed)
    eps = p ** level
    failures = []
    checked = 0
    def moved():
        d = [rng.randrange(-1, 2) * eps for _ in range(5)]
        return ((a0[0] + d[0], a0[1] + d[1]),
                (b0[0] + d[2], b0[1] + d[3], b0[2] + d[4]))

    for _ in range(pairs):
        xa, xb = moved(), moved()
        r1 = orbital_rs(sigma_coords(*xa), f, eta)
        r2 = orbital_rs(sigma_coords(*xb), f, eta)
        if r1 != r2:
            failures.append(f"value jumps between {xa} and {xb}")
        checked += 1
    return failures, {"pairs": checked, "perturbation_level": level,
                      "base": [list(a0), list(b0)]}


# ---------------------------------------------------------------------------
# registry and driver


# name -> (suite, the parameters it takes).  `seed` is the run seed (the
# top-level `--seed`, or `seed` in the config); the others are
# `verify-suite` flags.  Everything else about a suite is fixed.
SUITES = {
    "section-identities": (suite_section_identities, ("n", "samples", "seed")),
    "triangularity": (suite_triangularity, ("samples", "seed")),
    "nilpotent-orbits": (suite_nilpotent_orbits, ()),
    "fourier": (suite_fourier, ("samples", "seed")),
    "oi-nilpotent": (suite_oi_nilpotent, ()),
    "transfer": (suite_transfer, ("samples", "seed")),
    "dagger": (suite_dagger, ()),
    "germ": (suite_germ, ("m", "r")),
    "theorem-germ-gl": (suite_theorem_germ_gl, ("m", "r")),
    "local-factors": (suite_local_factors, ()),
    "local-constancy": (suite_local_constancy, ("pairs", "seed")),
}

MAX_REPORTED_FAILURES = 20


def run_suite(name, config=None, **flags):
    """Run suite `name` and return its report.

    `flags` are the `verify-suite` flags the suite takes, each a positive
    integer, and `n` is bounded by budgets/max_n of `config` (default
    RunConfig()), whose seed and max_cosets the suite runs under.  Any
    other name or flag raises SchemaError before work starts, and a given
    `samples` or `pairs` count is charged first, one coset per sample."""
    if name not in SUITES:
        raise SchemaError(f"/suite: unknown suite {name!r}; "
                          f"choose from {sorted(SUITES)}")
    fn, params = SUITES[name]
    config = config or RunConfig()
    with config.scope():
        for key, value in flags.items():
            if key == "seed" or key not in params:
                raise SchemaError(f"/{key}: not a flag of suite {name!r}")
            read_int(value, f"/{key}", low=1)
            if key in ("samples", "pairs"):
                charge(value, [1], f"{name} --{key} budget")  # value^1 cosets
        if "n" in flags:
            config.check_rank(flags["n"], "/n")
        if "seed" in params:
            flags["seed"] = config.seed
        failures, stats = fn(**flags)
    return {
        "suite": name,
        "passed": not failures,
        "failures": failures[:MAX_REPORTED_FAILURES],
        "stats": stats,
    }

