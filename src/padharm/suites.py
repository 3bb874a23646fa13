"""Named verification suites.

Each suite checks identities by two independent routes.  A suite is a
generator: it yields `(label, route A value, route B value)` once per
check and returns its stats.  `run_suite` owns the rest: it checks the
flags, charges a given sample count, supplies the fixed context and the
seed, compares the two values of every check by one rule (`.equals` for
wave packets, `==` otherwise) and builds the report

    {"suite": name, "passed": bool, "failures": [...], "stats": {...}}

whose failures are the labels of the checks whose routes differ.
`SUITES` maps each name to its suite.  A suite's parameters with a
default are its `verify-suite` flags; the others are `ctx`, the fixed
context (the default RunConfig: p = 3, delta = 2), and `seed`, the run
seed.  The CLI `verify-suite` command, the acceptance tests and CI all
go through `run_suite`.
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
    GERM_POINTS,
    default_germ_level,
    germ_constant_check,
    orbital_nilpotent,
    orbital_rs,
    theorem_germ_gl,
)
from . import lfactors


# ---------------------------------------------------------------------------
# sections and isomorphisms


def suite_section_identities(seed, n=3, samples=500):
    """pi o sigma = id, delta_+ o sigma = 1, and both chart round trips,
    on random data over Z/p^5 for p = 3, 5 at every rank up to n."""
    Npow = 5
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

            def red(x):
                """A residue, or nested tuples or lists of them, mod p^N."""
                return x % mod if isinstance(x, int) else tuple(map(red, x))

            for _ in range(samples):
                a = tuple(rng.randrange(mod) for _ in range(rank))
                b = tuple(rng.randrange(mod) for _ in range(rank + 1))
                tag = f"n={rank} p={p} a={a} b={b}"
                X0 = section_sigma(R, a, b)
                ga, gb = invariants_of(R, X0)
                yield f"pi o sigma != id at {tag}", red((ga, gb)), (a, b)
                yield (f"delta_+ o sigma != 1 at {tag}",
                       red(delta_plus(R, X0)), red(one))
                h = rand_gl()
                h2, (a2, b2) = iota_inverse(R, iota(R, h, a, b))
                yield (f"plus-chart round trip failed at {tag}",
                       red((h2, a2, b2)), (red(h), a, b))
                Xp = conjugate(R, h, section_sigma_prime(R, a, b))
                h3, (a3, b3) = iota_prime_inverse(R, Xp)
                back = conjugate(R, h3, section_sigma_prime(R, a3, b3))
                yield (f"prime-chart round trip failed at {tag}",
                       red((a3, b3, back)), (a, b, red(Xp)))
    return {"samples": 2 * n * samples, "n_values": list(range(1, n + 1)),
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


def suite_triangularity(seed, samples=10000):
    """The three coordinate maps are bijections of (Z/9)^m with fiber
    size one: the invariant chart pi o sigma', the lower-unipotent cell
    map nu'_(a,b), and the upper-unipotent cone map nu_+."""
    p, Npow = 3, 2
    R = IntModRing(p, Npow)
    mod = p ** Npow
    rng = random.Random(seed)
    stats = {}

    def bijection(label, key, phi, m):
        """(label, the fault triangular_check finds in phi's fibers,
        None): a bijection has none, and its report goes to stats[key]."""
        fault = None
        try:
            stats[key] = triangular_check(phi, m, p, Npow,
                                          samples=samples, seed=seed)
        except ArithmeticError as exc:
            fault = str(exc)
        return f"{label}: {fault}", fault, None

    # pi o sigma' on invariants, m = 2n+1
    for n in (1, 2):
        def phi_inv(x, n=n):
            a, b = x[:n], x[n:]
            a2, b2 = invariants_of(R, section_sigma_prime(R, a, b))
            return a2 + b2

        yield bijection(f"pi o sigma' n={n}", f"pi_sigma_prime_n{n}",
                        phi_inv, 2 * n + 1)

    # nu_+ : u -> entries of u xi_+ u^-1 above the superdiagonal
    for n in (2, 3, 4):
        pos = [(i, j) for i in range(n + 1) for j in range(i + 2, n + 1)]

        def phi_nu_plus(x, n=n, pos=pos):
            Y = nu_plus(R, _unipotent_from(R, n, x, upper=True))
            return tuple(Y[i][j] for i, j in pos)

        yield bijection(f"nu_+ n={n}", f"nu_plus_n{n}",
                        phi_nu_plus, n * (n - 1) // 2)

    # nu'_(a,b) : lower unipotent -> below-diagonal coordinates of the slice
    for n in (2, 3):
        a = tuple(rng.randrange(mod) for _ in range(n))
        b = tuple(rng.randrange(mod) for _ in range(n + 1))
        sig = section_sigma_prime(R, a, b)
        pos = [(i, j) for i in range(1, n) for j in range(1, i + 1)]

        def phi_nu_prime(x, n=n, sig=sig, pos=pos):
            Y = conjugate(R, _unipotent_from(R, n, x, upper=False), sig)
            return tuple(Y[i][j] for i, j in pos)

        yield bijection(f"nu'_(a,b) n={n}", f"nu_prime_n{n}",
                        phi_nu_prime, n * (n - 1) // 2)
    return stats


# ---------------------------------------------------------------------------
# brute-force regular nilpotent classification


def suite_nilpotent_orbits():
    """Over F_3 and F_5, n = 2: the nilpotent cone splits as
    orbit(xi_+) = {Delta_+ != 0}, orbit(xi_-) = {Delta_- != 0}, and an
    irregular remainder, by exhaustive enumeration."""
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
        yield (f"p={p}: Delta_+ locus != orbit(xi_+)",
               plus, orbit_of(R, xi_plus(R, 3), group))
        yield (f"p={p}: Delta_- locus != orbit(xi_-)",
               minus, orbit_of(R, xi_minus(R, 3), group))
        yield f"p={p}: Delta_+ and Delta_- loci meet", plus & minus, set()
        yield (f"p={p}: remainder is regular",
               any(Delta_plus(R, X) % p or Delta_minus(R, X) % p
                   for X in cone if key(X) in rest), False)
        stats[f"p{p}"] = {
            "cone": len(plus) + len(minus) + len(rest),
            "plus_orbit": len(plus),
            "minus_orbit": len(minus),
            "irregular": len(rest),
        }
    return stats


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
        # wide lattices on high-dimensional spaces make any refinement
        # exponentially large (FFf = f(-x) builds none, as its rows
        # cancel); keep exps >= 0 when dim > 2
        lo = 0 if dim > 2 else -1
        exps = tuple(rng.randrange(lo, 2) for _ in range(dim))
        freq = tuple(Fraction(rng.randrange(-p, p + 1), p)
                     for _ in range(dim))
        terms.append((coeff, center, exps, freq))
    return WavePacket(space, terms)


def suite_fourier(ctx, seed, samples=200):
    """Double Fourier transform = reflection on random wave packets, and
    the self-duality of the unit lattice for an unramified character."""
    F, psi, ext = ctx.field(), ctx.psi(), ctx.ext()
    spaces = [
        f_space(F, psi, 1), f_space(F, psi, 2),
        f_space(F, psi, 3), f_space(F, psi, 4),
        e_space(ext, psi, 1), e_space(ext, psi, 2),
        matrix_space_f(F, psi, 2), s_space(ext, psi, 1),
    ]
    rng = random.Random(seed)
    for i in range(samples):
        f = _random_packet(spaces[i % len(spaces)], rng, ctx.p)
        yield (f"double transform != reflection (sample {i})",
               f.fourier().fourier(), f.reflect())
    unit = WavePacket.indicator(f_space(F, psi, 1), (0,))
    yield "fourier(1_O) != 1_O for unramified psi", unit.fourier(), unit
    return {"samples": samples, "spaces": len(spaces)}


# ---------------------------------------------------------------------------
# nilpotent orbital integrals


def suite_oi_nilpotent(ctx):
    """n = 1 closed form against an independent geometric-series oracle;
    n = 2 pole located exactly at s = 1/2 within [0, 1)."""
    F, psi, eta = ctx.field(), ctx.psi(), ctx.eta()
    q = Fraction(ctx.p)

    f1 = WavePacket.indicator(matrix_space_f(F, psi, 2), 0)
    got1 = orbital_nilpotent("plus", f1, eta).as_qrational()
    # oracle: the weight eta(b)|b|^s over v(b) >= 0 is a geometric series
    # in (eta(p) T), each valuation shell having d*-measure 1 - 1/q; a
    # ramified eta integrates to 0 over the units of every shell
    if eta.is_unramified:
        series = QRational.const(1 - 1 / q) * geometric_tail(
            eta(q).as_rational(), 1, 0)
    else:
        series = QRational.const(0)
    yield ("n=1 closed form disagrees with the series oracle", got1, series)

    f2 = WavePacket.indicator(matrix_space_f(F, psi, 3), 0)
    qr2 = orbital_nilpotent("plus", f2, eta).as_qrational()
    # poles inside s in [0, 1), i.e. T in (1/q, 1]: exactly one, at s = 1/2
    n_real = qr2.real_pole_count(Fraction(1, q), 1)
    half_order = qr2.pole_order_at_sqrt(Fraction(1, q), +1)
    yield (f"n=2: expected one real pole in (1/q, 1], got {n_real}",
           n_real, 1)
    yield (f"n=2: pole order at s=1/2 is {half_order}, expected 1",
           half_order, 1)
    # s = 0 is T = 1
    yield "n=2: unexpected pole at s=0", qr2.pole_order_at_sqrt(Fraction(1)), 0
    return {"n1": repr(got1), "n2": repr(qr2),
            "n2_pole_order_at_half": half_order}


# ---------------------------------------------------------------------------
# transfer factors and matching


def _rand_ext_scalar(ext, rng):
    return ext.scalar(Fraction(rng.randrange(-3, 4)),
                      Fraction(rng.randrange(-3, 4)))


def suite_transfer(ctx, seed, samples=100):
    """Omega(h1 gamma h2) = eta(h2) Omega(gamma) on random group pairs at
    n = 1, plus the matching dichotomy (exactly one Hermitian form, stable
    under conjugation) over a grid of invariant classes."""
    p, ext = ctx.p, ctx.ext()
    eta, eta_prime = ctx.eta(), ctx.eta_prime()
    rng = random.Random(seed)
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
        yield (f"equivariance failed: gamma1={gamma1}, t={t}, det g2={dg2}",
               moved, base * eta(dg2))
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
                    # no form, or both, matches: the refusal is the fault
                    yield (f"dichotomy failed at {(a, b0, b1)}: {exc}",
                           str(exc), None)
                    continue
                # conjugation invariance under diag(c, 1)
                c = Fraction(2)
                Xc = mat([[Xf[0][0], Xf[0][1] * c],
                          [Xf[1][0] / c, Xf[1][1]]])
                yield (f"matching not conjugation-invariant at {(a, b0, b1)}",
                       match_side(ext, tau_scale(ext, Xc), eta, forms), side)
                classes += 1
    return {"equivariance_samples": done, "invariant_classes": classes}


# ---------------------------------------------------------------------------
# dagger data and compactness


def suite_dagger(ctx):
    """Generated dagger data pass the definitional predicates for m = 1, 2;
    the direct smoothed Whittaker evaluation equals its closed form on a
    grid of 20 points."""
    p, psi, ext, eta = ctx.p, ctx.psi(), ctx.ext(), ctx.eta()
    for m in (1, 2):
        theta = make_dagger_scalar(ext, psi, m)
        yield (f"scalar m={m} fails its predicate",
               is_admissible_scalar(ext, psi, m, theta.packet), True)
        for k in (2, 3):
            yield (f"column m={m} k={k} fails its predicate",
                   is_admissible_column(make_dagger_column(ext, psi, m, k)),
                   True)
        yield (f"matrix m={m} fails its predicate",
               is_admissible_matrix(make_dagger_matrix(ext, psi, m, 2)), True)

    theta = make_dagger_scalar(ext, psi, 1)
    ys = []
    for u in (1, 2, 4, 5, 7):
        for v in (-2, -1, 0, 1):
            ys.append(Fraction(u) * Fraction(p) ** v)
    for y in ys:
        yield (f"compactness identity fails at y={y}",
               compactness_W_direct(ext, psi, eta, theta, y),
               compactness_W_closed(ext, psi, eta, theta, y))
    return {"m_values": [1, 2], "points": len(ys)}


# ---------------------------------------------------------------------------
# germ identities


def suite_germ(ctx, m=1, r=None):
    """Local constancy near the minus nilpotent: the regular semisimple
    integrals of the smoothed descent agree at every point of
    GERM_POINTS and equal the germ constant, with the transfer factor
    constant on the slice and equal to its value at the nilpotent
    representative.  The level r defaults to `default_germ_level(m)`."""
    r = default_germ_level(m) if r is None else r
    psi, ext = ctx.psi(), ctx.ext()
    eta, eta_prime = ctx.eta(), ctx.eta_prime()
    phi = make_dagger_scalar(ext, psi, m)
    rep = germ_constant_check(ext, psi, eta, eta_prime, phi, r,
                              list(GERM_POINTS))
    tf_xi = transfer_factor_lie(ext, xi_minus_s(ext, 2), eta_prime,
                                sign="minus")
    for pt in rep["points"]:
        yield (f"orbital integral differs from mu at {pt['point']}",
               pt["value"], rep["mu"])
        yield (f"transfer factor not constant on the slice at {pt['point']}",
               pt["transfer_factor"], tf_xi)
    return {"mu": repr(rep["mu"]), "points": len(rep["points"]),
            "delta": int(ctx.delta_fraction), "m": m, "r": r}


def suite_theorem_germ_gl(ctx, m=1, r=None):
    """The rank-1 spectral/geometric germ identity for the trivial central
    datum and one nontrivial sign, at the level r (default
    `default_germ_level(m)`)."""
    r = default_germ_level(m) if r is None else r
    psi, ext, eta = ctx.psi(), ctx.ext(), ctx.eta()
    phi = make_dagger_scalar(ext, psi, m)
    stats = {}
    for omega_tau in (1, -1):
        rep = theorem_germ_gl(ext, psi, eta, phi, r, omega_tau=omega_tau)
        stats[f"omega_{omega_tau}"] = {
            "lhs": repr(rep["lhs"]), "rhs": repr(rep["rhs"]),
            "equal": rep["equal"],
        }
        yield (f"identity fails for omega(tau) = {omega_tau}",
               rep["lhs"], rep["rhs"])
    return stats


# ---------------------------------------------------------------------------
# local factors


def suite_local_factors(ctx):
    """Point count vs. L-factor product for the unitary hyperspecial
    volume, the unramified bookkeeping identity, and kappa = 1 on
    all-unramified data."""
    for m in range(1, 5):
        yield (f"q^(-m^2)|U_m| != Delta_m^(-1) at m={m}",
               QRational.monomial(1, m * m) * lfactors.unitary_point_count(m),
               lfactors.delta_constant(m).inverse())
        yield (f"hyperspecial volume routes differ at m={m}",
               lfactors.hyperspecial_volume(m, via="points"),
               lfactors.hyperspecial_volume(m, via="lfactor"))
        yield (f"vol(GL_m(O)) zeta product != 1 at m={m}",
               lfactors.vol_gl(m) * _zeta_prod(m), 1)
    for n in (1, 2):
        # I = 1 and J = L(1, eta); the hyperspecial volume the identity
        # uses is the m = n + 1 check above
        rep = lfactors.unramified_identity(n)
        yield (f"unramified identity fails at n={n}",
               (rep["I_coefficient"], rep["J_coefficient"]),
               (1, lfactors.l_eta(1)))
    psi, ext = ctx.psi(), ctx.ext()
    eta, eta_prime = ctx.eta(), ctx.eta_prime()
    for n in range(1, 5):
        yield (f"kappa != 1 on unramified data at n={n}",
               lfactors.kappa(n, ext, eta, eta_prime, psi), 1)
    return {"m_max": 4, "kappa_n_max": 4}


def _zeta_prod(m):
    out = QRational.const(1)
    for i in range(2, m + 1):
        out = out * lfactors.zeta_local(i)
    return out


# ---------------------------------------------------------------------------
# local constancy of regular semisimple integrals, rank 2


def suite_local_constancy(ctx, seed, pairs=10):
    """O(sigma(x), f) at n = 2 is unchanged when the invariants x move by
    p^level, level = 3, for f an indicator of a unit-scale coset around a
    regular base point (so supp f stays inside the Delta_+ != 0 locus)."""
    level = 3
    p, psi, eta = ctx.p, ctx.psi(), ctx.eta()
    Rf = FractionRing()

    def sigma_coords(a, b):
        S = section_sigma(Rf, a, b)
        return tuple(Fraction(e) for row in S for e in row)

    a0, b0 = (1, 2), (1, 1, 2)
    Y0 = sigma_coords(a0, b0)
    f = WavePacket.indicator(matrix_space_f(ctx.field(), psi, 3), 1,
                             center=Y0)
    rng = random.Random(seed)
    eps = p ** level

    def moved():
        d = [rng.randrange(-1, 2) * eps for _ in range(5)]
        return ((a0[0] + d[0], a0[1] + d[1]),
                (b0[0] + d[2], b0[1] + d[3], b0[2] + d[4]))

    for _ in range(pairs):
        xa, xb = moved(), moved()
        yield (f"value jumps between {xa} and {xb}",
               orbital_rs(sigma_coords(*xa), f, eta),
               orbital_rs(sigma_coords(*xb), f, eta))
    return {"pairs": pairs, "perturbation_level": level,
            "base": [list(a0), list(b0)]}


# ---------------------------------------------------------------------------
# registry and driver


SUITES = {
    "section-identities": suite_section_identities,
    "triangularity": suite_triangularity,
    "nilpotent-orbits": suite_nilpotent_orbits,
    "fourier": suite_fourier,
    "oi-nilpotent": suite_oi_nilpotent,
    "transfer": suite_transfer,
    "dagger": suite_dagger,
    "germ": suite_germ,
    "theorem-germ-gl": suite_theorem_germ_gl,
    "local-factors": suite_local_factors,
    "local-constancy": suite_local_constancy,
}

MAX_REPORTED_FAILURES = 20


def _parameters(fn):
    """(the parameters run_suite supplies, {flag: default}) of suite fn:
    its parameters without a default, and those with one."""
    code, defaults = fn.__code__, fn.__defaults__ or ()
    names = code.co_varnames[:code.co_argcount]
    split = len(names) - len(defaults)
    return names[:split], dict(zip(names[split:], defaults))


def suite_flags(name):
    """{flag: default} of suite `name`, in parameter order.  A default of
    None is derived from the other flags (the germ level r,
    `orbital.default_germ_level`)."""
    return _parameters(SUITES[name])[1]


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
    fn = SUITES[name]
    supplied, taken = _parameters(fn)
    config = config or RunConfig()
    with config.scope():
        for key, value in flags.items():
            if key not in taken:
                raise SchemaError(f"/{key}: not a flag of suite {name!r}")
            read_int(value, f"/{key}", low=1)
            if key in ("samples", "pairs"):
                charge(value, [1], f"{name} --{key} budget")  # value^1 cosets
        if "n" in flags:
            config.check_rank(flags["n"], "/n")
        context = {"ctx": RunConfig(), "seed": config.seed}
        checks = fn(*(context[key] for key in supplied), **flags)
        failures = []
        while True:
            try:
                label, a, b = next(checks)
            except StopIteration as done:
                stats = done.value
                break
            if not (a.equals(b) if isinstance(a, WavePacket) else a == b):
                failures.append(label)
    return {
        "suite": name,
        "passed": not failures,
        "failures": failures[:MAX_REPORTED_FAILURES],
        "stats": stats,
    }
