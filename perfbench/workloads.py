"""The four benchmark workloads.

Each workload is a closed loop over *cycles*: a cycle is a fixed mix of
item kinds whose parameters come from the seeded generator, so every run
measures the same composition of work whatever the seed.  An item is one
certified unit of work: the calls into ``padharm`` plus the exact identity
that certifies their answer.  A failed identity raises ``GateError``.

Why each workload exists is written down in README.md next to this file.
"""

import contextlib
import io
import json
import os
import random
from fractions import Fraction

from padharm.characters import AdditiveCharacter, eta_for_extension, eta_prime_default
from padharm.cli import main as cli_main
from padharm.config import RunConfig
from padharm.errors import DomainError, ScaleExceeded
from padharm.matrices import (
    FractionRing,
    IntModRing,
    conjugate,
    delta_plus,
    identity,
    invariants_of,
    iota,
    iota_inverse,
    iota_prime_inverse,
    mat,
    mat_mul,
    section_sigma,
    section_sigma_prime,
)
from padharm.orbital import orbital_rs
from padharm.padic import FieldContext, QuadExtContext
from padharm.spaces import (
    WavePacket,
    e_space,
    f_space,
    matrix_space_f,
    riemann_fourier,
    s_space,
)
from padharm.symspace import HermitianForm, match_side, tau_scale, transfer_factor_group


class GateError(Exception):
    """An exact identity failed: the program gave a wrong answer."""


def require(ok, what):
    if not ok:
        raise GateError(what)


class Item:
    """One unit of work.  ``expect`` is the outcome the item must end in:
    ``"exact"`` for an exact answer, ``"refused"`` for ScaleExceeded."""

    __slots__ = ("kind", "data", "expect")

    def __init__(self, kind, data, expect="exact"):
        self.kind = kind
        self.data = data
        self.expect = expect


# ---------------------------------------------------------------------------
# rank2-cells


class Rank2Cells:
    """orbital_rs on 3x3 sigma(a, b) points: a regular base point and two
    p^3-perturbations of its invariants share one unit-scale indicator
    packet, so the three integrals must be equal (local constancy)."""

    name = "rank2-cells"
    p = 3
    level = 3
    # (delta, phase-twisted packet, base invariants (a, b)): inert and
    # ramified delta, plain and twisted packets, one group of each per four
    # cycles.  The base points are fixed so that every run enumerates the
    # same geometry; the seed draws the perturbations and the phases.
    GROUPS = ((2, False, (1, 2), (1, 1, 2)), (3, True, (2, 1), (1, 2, 1)),
              (2, True, (1, 1), (2, 1, 1)), (3, False, (0, 1), (1, 1, 1)))
    prefix_cycles = 2
    trace_cycles = 3

    def setup(self):
        F = FieldContext(self.p, 8)
        psi = AdditiveCharacter(F, 0)
        etas = {g[0]: eta_for_extension(QuadExtContext(F, g[0]))
                for g in self.GROUPS}
        return {"space": matrix_space_f(F, psi, 3), "eta": etas,
                "R": FractionRing()}

    def _coords(self, ctx, a, b):
        S = section_sigma(ctx["R"], a, b)
        return tuple(Fraction(e) for row in S for e in row)

    def cycle(self, ctx, rng, index):
        p = self.p
        delta, twisted, a0, b0 = self.GROUPS[index % len(self.GROUPS)]
        Y0 = self._coords(ctx, a0, b0)
        freq = [Fraction(0)] * 9
        if twisted:
            # frequencies in p^-1 Z: a phase on the unit-scale coset;
            # p^-2 Z frequencies fail the two-granularity certificate
            for t in rng.sample(range(9), 2):
                freq[t] = Fraction(rng.choice((-2, -1, 1, 2)), p)
        f = WavePacket.indicator(ctx["space"], 1, center=Y0, freq=freq)
        group = {"f": f, "eta": ctx["eta"][delta], "first": None}
        items = [Item("base", (group, Y0))]
        eps = p ** self.level
        for _ in range(2):
            d = [0] * 5
            while not any(d):
                d = [rng.randrange(-1, 2) * eps for _ in range(5)]
            X = self._coords(ctx, (a0[0] + d[0], a0[1] + d[1]),
                             (b0[0] + d[2], b0[1] + d[3], b0[2] + d[4]))
            items.append(Item("perturbed", (group, X)))
        return items

    def run(self, ctx, item, tr):
        group, X = item.data
        res = tr.call("orbital.orbital_rs", orbital_rs, X, group["f"],
                      group["eta"])
        if group["first"] is None:
            group["first"] = res
        else:
            require(res == group["first"],
                    f"orbital integral at {X} differs from the base point")
        tr.add_cells(self.p, res.metadata["box_floor"], res.metadata["granularity"])
        return res

    def digest(self, res):
        return repr([(repr(c), repr(qr)) for c, qr in res.pairs])


# ---------------------------------------------------------------------------
# packet-calculus


class PacketCalculus:
    """Seeded wave packets on the eight spaces of suite_fourier: Fourier
    transform, refinement equality, convolution and pointwise values."""

    name = "packet-calculus"
    p = 3
    prefix_cycles = 2
    trace_cycles = 12
    items_per_cycle = 24

    def setup(self):
        p = self.p
        F = FieldContext(p, 4)
        psi = AdditiveCharacter(F, 0)
        ext = QuadExtContext(F, 2)
        return {"spaces": [
            f_space(F, psi, 1), f_space(F, psi, 2),
            f_space(F, psi, 3), f_space(F, psi, 4),
            e_space(ext, psi, 1), e_space(ext, psi, 2),
            matrix_space_f(F, psi, 2), s_space(ext, psi, 1),
        ]}

    def _terms(self, rng, dim, lo):
        p = self.p
        terms = []
        for _ in range(rng.randrange(1, 4)):
            coeff = Fraction(rng.randrange(-4, 5) or 1, rng.randrange(1, 4))
            center = tuple(Fraction(rng.randrange(-p, p + 1), p)
                           for _ in range(dim))
            exps = tuple(rng.randrange(lo, 2) for _ in range(dim))
            freq = tuple(Fraction(rng.randrange(-p, p + 1), p)
                         for _ in range(dim))
            terms.append((coeff, center, exps, freq))
        return terms

    def cycle(self, ctx, rng, index):
        items = []
        spaces = ctx["spaces"]
        for i in range(self.items_per_cycle):
            sp = spaces[i % len(spaces)]
            # the suite's distribution: wide lattices only in dimension <= 2
            lo = 0 if sp.dim > 2 else -1
            w = tuple(Fraction(rng.randrange(-self.p, self.p + 1), self.p)
                      for _ in range(sp.dim))
            # riemann_fourier builds lattice offsets as p ** a, a float for
            # a < 0, so its oracle packet keeps exponents >= 0
            items.append(Item(f"dim{sp.dim}", (
                sp, self._terms(rng, sp.dim, lo), self._terms(rng, sp.dim, lo),
                self._terms(rng, sp.dim, 0), w)))
        return items

    def run(self, ctx, item, tr):
        sp, tf, tg, th, w = item.data
        f = tr.call("spaces.WavePacket", WavePacket, sp, tf)
        g = tr.call("spaces.WavePacket", WavePacket, sp, tg)
        ff = tr.call("spaces.fourier", f.fourier)
        back = tr.call("spaces.fourier", ff.fourier)
        require(tr.call("spaces.equals", back.equals, f.reflect()),
                "double Fourier transform != reflection")
        conv = tr.call("spaces.convolve_add", f.convolve_add, g)
        lhs = tr.call("spaces.integral", conv.integral)
        rhs = f.integral() * g.integral()
        require((lhs - rhs).is_zero(), "integral of f * g != product of integrals")
        minus_w = tuple(-t for t in w)
        fw = tr.call("spaces.evaluate", f.evaluate, w)
        require((fw - back.evaluate(minus_w)).is_zero(),
                "f(w) != FFf(-w)")
        h = tr.call("spaces.WavePacket", WavePacket, sp, th)
        direct = tr.call("spaces.riemann_fourier", riemann_fourier, h, w)
        require((direct - h.fourier().evaluate(w)).is_zero(),
                "riemann_fourier != fourier().evaluate")
        return ff, conv

    def digest(self, res):
        ff, conv = res
        return repr((ff.terms, conv.terms))


# ---------------------------------------------------------------------------
# charts-transfer


class ChartsTransfer:
    """Chart round trips over Z/p^N and transfer-factor / matching checks
    over a quadratic extension."""

    name = "charts-transfer"
    N = 5
    CHARTS = tuple((n, p) for n in (1, 2, 3) for p in (3, 5))
    DELTAS = (2, 3)  # inert and ramified at p = 3
    prefix_cycles = 2
    trace_cycles = 20

    def setup(self):
        F = FieldContext(3, 4)
        exts = {}
        for d in self.DELTAS:
            ext = QuadExtContext(F, d)
            eta = eta_for_extension(ext)
            exts[d] = {"ext": ext, "eta": eta,
                       "eta_prime": eta_prime_default(ext, eta),
                       "forms": [HermitianForm(ext, (1, 1)),
                                 HermitianForm(ext, (1, 3))]}
        return {"rings": {p: IntModRing(p, self.N) for p in (3, 5)},
                "exts": exts, "R": FractionRing()}

    # -- generation --------------------------------------------------------
    def _chart(self, ctx, rng, n, p):
        R = ctx["rings"][p]
        mod = p ** self.N

        def unipotent(lower):
            u = [[R.one() if i == j else R.zero() for j in range(n)]
                 for i in range(n)]
            for i in range(n):
                for j in range(n):
                    if (i > j) if lower else (i < j):
                        u[i][j] = R.coerce(rng.randrange(mod))
            return mat(u)

        diag = []
        while len(diag) < n:
            c = rng.randrange(1, mod)
            if c % p:
                diag.append(c)
        d = mat([[R.coerce(diag[i]) if i == j else R.zero() for j in range(n)]
                 for i in range(n)])
        # L*D*U with unit pivots: invertible over Z/p^N
        h = mat_mul(mat_mul(unipotent(True), d), unipotent(False))
        a = tuple(rng.randrange(mod) for _ in range(n))
        b = tuple(rng.randrange(mod) for _ in range(n + 1))
        return R, mod, h, a, b

    def _transfer(self, ctx, rng, d):
        e = ctx["exts"][d]
        ext = e["ext"]

        def rnd():
            return ext.scalar(Fraction(rng.randrange(-3, 4)),
                              Fraction(rng.randrange(-3, 4)))

        p = ext.F.p
        while True:
            gamma1 = mat([[rnd()]])
            gamma2 = mat([[rnd() for _ in range(2)] for _ in range(2)])
            t = Fraction(rng.choice((1, 2, 3, p, 2 * p)))
            g1 = Fraction(rng.choice((1, 2, p)))
            g2 = [[Fraction(rng.randrange(-2, 3)) for _ in range(2)]
                  for _ in range(2)]
            if g2[0][0] * g2[1][1] == g2[0][1] * g2[1][0]:
                continue
            ts = ext.scalar(t)
            gamma1b = mat([[ts * gamma1[0][0] * ext.scalar(g1)]])
            emb = [[ts, ext.zero()], [ext.zero(), ext.one()]]
            prod = [[emb[i][0] * gamma2[0][j] + emb[i][1] * gamma2[1][j]
                     for j in range(2)] for i in range(2)]
            gamma2b = mat([[prod[i][0] * ext.scalar(g2[0][j])
                            + prod[i][1] * ext.scalar(g2[1][j])
                            for j in range(2)] for i in range(2)])
            # keep computable samples only: singular ones, and ones whose
            # moved pair loses p-adic precision, end in DomainError
            try:
                transfer_factor_group(ext, gamma1, gamma2, e["eta_prime"])
                transfer_factor_group(ext, gamma1b, gamma2b, e["eta_prime"])
            except DomainError:
                continue
            return Item(f"transfer-d{d}", (e, gamma1, gamma2, gamma1b,
                                           gamma2b, g2))

    def _match(self, ctx, rng, d):
        p = 3
        grid = [Fraction(u) * Fraction(p) ** v for u in (1, 2) for v in (0, 1)]
        a = rng.choice([Fraction(0)] + grid)
        b0 = rng.choice([Fraction(0)] + grid)
        b1 = rng.choice(grid + [-g for g in grid])
        c = Fraction(rng.choice((2, p, -1))) ** rng.choice((1, -1))
        return ctx["exts"][d], (a,), (b0, b1), c

    def cycle(self, ctx, rng, index):
        # Items of similar cost (about 3 ms, transfer items 6 ms): one chart
        # item runs every (n, p) chart, one match item four classes.  Single
        # charts and classes cost 0.2 to 0.9 ms in steps, and the median
        # latency jumped between those steps with the seed and the load.
        items = []
        for _ in range(2):
            items.append(Item("charts", [self._chart(ctx, rng, n, p)
                                         for n, p in self.CHARTS]))
        items += [self._transfer(ctx, rng, d) for d in self.DELTAS]
        for _ in range(2):
            items.append(Item("match", [self._match(ctx, rng, d)
                                        for d in self.DELTAS * 2]))
        return items

    # -- execution -----------------------------------------------------------
    def run(self, ctx, item, tr):
        if item.kind == "charts":
            return [self._run_chart(part, tr) for part in item.data]
        if item.kind == "match":
            return [self._run_match(ctx, part, tr) for part in item.data]
        return self._run_transfer(item, tr)

    @staticmethod
    def _run_chart(data, tr):
        R, mod, h, a, b = data
        n = len(a)

        def vec(v):
            return tuple(int(x) % mod for x in v)

        def red(X):
            return tuple(tuple(int(x) % mod for x in row) for row in X)

        X0 = tr.call("matrices.section_sigma", section_sigma, R, a, b)
        ga, gb = tr.call("matrices.invariants_of", invariants_of, R, X0)
        require((vec(ga), vec(gb)) == (a, b), "pi o sigma != id")
        require(red(tr.call("matrices.delta_plus", delta_plus, R, X0))
                == red(identity(R, n)), "delta_+ o sigma != 1")
        X = tr.call("matrices.iota", iota, R, h, a, b)
        h2, (a2, b2) = tr.call("matrices.iota_inverse", iota_inverse, R, X)
        require((red(h2), vec(a2), vec(b2)) == (red(h), a, b),
                "plus-chart round trip failed")
        Xp = tr.call("matrices.conjugate", conjugate, R, h,
                      section_sigma_prime(R, a, b))
        h3, (a3, b3) = tr.call("matrices.iota_prime_inverse",
                               iota_prime_inverse, R, Xp)
        require((vec(a3), vec(b3)) == (a, b)
                and red(conjugate(R, h3, section_sigma_prime(R, a3, b3)))
                == red(Xp), "prime-chart round trip failed")
        return red(h2), vec(a2), vec(b2), red(h3)

    @staticmethod
    def _run_transfer(item, tr):
        e, gamma1, gamma2, gamma1b, gamma2b, g2 = item.data
        ext, eta_prime = e["ext"], e["eta_prime"]
        base = tr.call("symspace.transfer_factor_group", transfer_factor_group,
                       ext, gamma1, gamma2, eta_prime)
        moved = tr.call("symspace.transfer_factor_group", transfer_factor_group,
                        ext, gamma1b, gamma2b, eta_prime)
        dg2 = g2[0][0] * g2[1][1] - g2[0][1] * g2[1][0]
        require((moved - base * e["eta"](dg2)).is_zero(),
                "Omega(h1 gamma h2) != eta(h2) Omega(gamma)")
        return base, moved

    @staticmethod
    def _run_match(ctx, data, tr):
        e, a, b, c = data
        ext = e["ext"]
        Xf = section_sigma(ctx["R"], a, b)
        side = tr.call("symspace.match_side", match_side, ext,
                       tau_scale(ext, Xf), e["eta"], e["forms"])
        Xc = mat([[Xf[0][0], Xf[0][1] * c], [Xf[1][0] / c, Xf[1][1]]])
        side2 = tr.call("symspace.match_side", match_side, ext,
                        tau_scale(ext, Xc), e["eta"], e["forms"])
        require(side == side2, "matching side is not conjugation-invariant")
        return side

    def digest(self, res):
        return repr(res)


# ---------------------------------------------------------------------------
# cli-queries


GERM_POINTS = ((0, 1, 0), (1, 1, 0), (0, 1, 1), (1, 1, 1), (0, 2, 0),
               (3, 1, 0))

# config documents: p = 3 inert (the default), p = 5 inert, p = 3 ramified
CONFIGS = {"p3": {}, "p5": {"p": 5}, "p3-ram": {"delta": {"val": 1, "unit": 1}}}


class CliQueries:
    """A seeded request mix through padharm.cli.main with payload, config
    and output files, as a batch caller would drive it."""

    name = "cli-queries"
    prefix_cycles = 1
    trace_cycles = 2
    # kind -> requests per cycle; one over-budget request in forty.  The
    # k-th request of a kind draws the parameters that set its cost from a
    # fixed grid, so every cycle has the same cost profile (the median
    # request would otherwise wander between kinds with the seed); the
    # seed draws everything else and the order.
    MIX = (("oi-nilpotent", 12), ("germ-check", 3), ("theorem-germ-gl", 3),
           ("dagger-gen", 6), ("local-factors", 3), ("oi-rs-rank1", 4),
           ("section-invariants", 4), ("match", 4), ("oi-rs-over-budget", 1))

    def __init__(self, workdir):
        self.workdir = workdir

    def setup(self):
        configs = {}
        for key, doc in CONFIGS.items():
            cfg = RunConfig(doc)
            cfg.field(), cfg.ext(), cfg.psi(), cfg.eta(), cfg.eta_prime()
            configs[key] = cfg
        os.makedirs(self.workdir, exist_ok=True)
        paths = {}
        for key, doc in CONFIGS.items():
            paths[key] = os.path.join(self.workdir, f"config-{key}.json")
            with open(paths[key], "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        return {"configs": configs, "config_paths": paths}

    @staticmethod
    def _payload(rng, kind, k):
        """(config key, command, payload) of the k-th request of a kind."""
        if kind == "oi-nilpotent":
            return ("p3", "p5")[k % 2], "oi-nilpotent", {
                "n": k // 4 + 1, "sign": ("plus", "minus")[k // 2 % 2]}
        if kind == "germ-check":
            pts = rng.sample(GERM_POINTS, k + 2)
            return "p3", "germ-check", {"m": 1, "r": 3,
                                        "points": [list(t) for t in pts]}
        if kind == "theorem-germ-gl":
            return "p3", "theorem-germ-gl", {"m": 1, "r": 3,
                                             "omega_tau": rng.choice((1, -1))}
        if kind == "dagger-gen":
            return ("p3", "p3-ram")[k % 2], "dagger-gen", {
                "kind": ("scalar", "column", "matrix")[k // 2],
                "m": k % 2 + 1, "k": 2}
        if kind == "local-factors":
            return "p3", "local-factors", {"q": rng.choice((3, 5)),
                                           "n_max": k + 2}
        if kind == "oi-rs-rank1":
            nz = [1, 2, -1, 3, Fraction(1, 3)]
            X = [rng.randrange(-2, 3), rng.choice(nz), rng.choice(nz),
                 rng.randrange(-2, 3)]
            return ("p3", "p3-ram")[k % 2], "oi-rs", {
                "X": [str(Fraction(x)) for x in X],
                "f": {"space": {"kind": "matrix-f", "k": 2},
                      "terms": [{"coeff": 1, "exps": [k // 2] * 4}]}}
        if kind == "section-invariants":
            n = (1, 2, 3, 2)[k]
            a = [str(Fraction(rng.randrange(-9, 10), rng.choice((1, 2, 3))))
                 for _ in range(n)]
            b = [str(Fraction(rng.randrange(-9, 10), rng.choice((1, 2, 3))))
                 for _ in range(n + 1)]
            return "p3", "section", {"kind": "sigma", "a": a, "b": b}
        if kind == "match":
            grid = [u * 3 ** v for u in (1, 2) for v in (0, 1)]
            a = rng.choice([0] + grid)
            b0 = rng.choice([0] + grid)
            b1 = rng.choice(grid + [-g for g in grid])
            # tau * sigma(a; b0, b1) as [plus, minus] pairs
            m = [[[0, a], [0, 1]], [[0, b1], [0, b0]]]
            return ("p3", "p3-ram")[k % 2], "match", {"matrix": m}
        # rank-2 oi-rs at lattice exponent 2: the first pass completes,
        # the certificate pass exceeds the default cell budget (exit 3)
        a0 = tuple(rng.randrange(-4, 5) for _ in range(2))
        b0 = tuple(rng.randrange(-4, 5) for _ in range(3))
        S = section_sigma(FractionRing(), a0, b0)
        X = [str(Fraction(e)) for row in S for e in row]
        return "p3", "oi-rs", {"X": X, "f": {
            "space": {"kind": "matrix-f", "k": 3},
            "terms": [{"coeff": 1, "exps": [2] * 9, "center": X}]}}

    def cycle(self, ctx, rng, index):
        slots = [(kind, k) for kind, count in self.MIX for k in range(count)]
        rng.shuffle(slots)
        items = []
        for slot, (kind, k) in enumerate(slots):
            key, command, payload = self._payload(rng, kind, k)
            path = os.path.join(self.workdir, f"payload-{slot}.json")
            items.append(Item(kind, (key, command, payload, path),
                              "refused" if kind == "oi-rs-over-budget" else "exact"))
        return items

    def _call(self, ctx, tr, key, command, payload, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        out = path[:-5] + "-out.json"
        argv = ["--config", ctx["config_paths"][key], "--payload", path,
                "--out", out, command]
        # errors are also echoed to stderr; keep the benchmark output clean
        with contextlib.redirect_stderr(io.StringIO()):
            code = tr.call("cli.main", cli_main, argv)
        with open(out, "rb") as fh:
            raw = fh.read()
        return code, raw

    def run(self, ctx, item, tr):
        key, command, payload, path = item.data
        code, raw = self._call(ctx, tr, key, command, payload, path)
        if code == 3:
            raise ScaleExceeded(json.loads(raw)["error"]["message"])
        if code != 0:
            raise DomainError(f"exit {code}: {raw[:200]!r}")
        result = json.loads(raw)["result"]
        outputs = [raw]
        if command == "oi-nilpotent" and payload["n"] == 1:
            cfg = ctx["configs"][key]
            _check_n1_closed_form(result, cfg.p, payload["sign"])
        elif command == "germ-check":
            require(result["all_equal"], "germ-check: all_equal is false")
        elif command == "theorem-germ-gl":
            require(result["equal"], "theorem-germ-gl: equal is false")
        elif command == "dagger-gen":
            require(result["admissible"], "dagger-gen: data not admissible")
        elif command == "local-factors":
            for row in result["table"]:
                rf = row["rational_function"]
                value = _eval_poly(rf["num"], Fraction(1, payload["q"])) / \
                    _eval_poly(rf["den"], Fraction(1, payload["q"]))
                require(value == Fraction(row["value_at_q"]),
                        f"local-factors: {row['name']} value mismatch")
        elif command == "match":
            require(result["side"] in (0, 1), "match: side out of range")
        elif command == "section":
            inv_payload = {"matrix": result["matrix"]}
            code, raw2 = self._call(ctx, tr, key, "invariants", inv_payload,
                                    path[:-5] + "-inv.json")
            require(code == 0, f"invariants of a section: exit {code}")
            inv = json.loads(raw2)["result"]
            want = ([str(Fraction(x)) for x in payload["a"]],
                    [str(Fraction(x)) for x in payload["b"]])
            require((inv["a"], inv["b"]) == want,
                    "section -> invariants round trip failed")
            outputs.append(raw2)
        return outputs

    def digest(self, res):
        return repr(res)


def _eval_poly(coeffs, t):
    total = Fraction(0)
    for c in reversed(coeffs):
        total = total * t + Fraction(c)
    return total


def _check_n1_closed_form(result, p, sign):
    """n = 1 level-0 indicator: (1 - 1/q) * sum_{v >= 0} (eta(p) T)^v with
    eta(p) = -1 for an inert extension; the minus side is T -> 1/T."""
    t = Fraction(1, 2)
    at = t if sign == "plus" else 1 / t
    oracle = (1 - Fraction(1, p)) / (1 + at)
    total = Fraction(0)
    for s in result["summands"]:
        coeff = s["coefficient"]["terms"]
        require(all(r == "0" for r, _ in coeff),
                "oi-nilpotent n=1: irrational coefficient")
        c = sum((Fraction(v) for _, v in coeff), Fraction(0))
        rf = s["rational_function"]
        total += c * _eval_poly(rf["num"], t) / _eval_poly(rf["den"], t)
    require(total == oracle, "oi-nilpotent n=1 != geometric-series closed form")


def make(name, workdir):
    if name == "rank2-cells":
        return Rank2Cells()
    if name == "packet-calculus":
        return PacketCalculus()
    if name == "charts-transfer":
        return ChartsTransfer()
    if name == "cli-queries":
        return CliQueries(workdir)
    raise KeyError(name)


def item_rng(seed, name):
    """The workload's input generator: a function of the seed alone."""
    return random.Random(f"{name}:{seed}")
