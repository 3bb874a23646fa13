"""Batch command-line front end.

JSON in, JSON out: every command reads an optional JSON payload
(`--payload PATH`, or stdin when piped), runs one exact operation, and
prints a deterministic JSON document (sorted keys, fixed formatting).
Exit codes: 0 success, 2 domain errors (including payload schema
violations, reported with JSON pointer paths), 3 scale-budget overruns.
"""

import argparse
import functools
import json
import sys
from fractions import Fraction

from .cyclotomic import CyclotomicScalar
from .errors import DomainError, ScaleExceeded, SchemaError
from .config import RunConfig
from .matrices import (
    FractionRing,
    classify_nilpotent,
    invariants_of,
    mat,
    section_sigma,
    section_sigma_prime,
    varrho,
)
from .symspace import (
    HermitianForm,
    match_side,
    transfer_factor_group,
    transfer_factor_lie,
    transfer_factor_S,
)
from .spaces import (
    WavePacket,
    e_minus_space,
    e_space,
    f_space,
    matrix_space_e,
    matrix_space_f,
    s_space,
)
from .dagger import (
    is_admissible_column,
    is_admissible_matrix,
    is_admissible_scalar,
    make_dagger_column,
    make_dagger_matrix,
    make_dagger_scalar,
    shell_valuation,
)
from .orbital import (
    germ_constant_check,
    orbital_nilpotent,
    orbital_rs,
    theorem_germ_gl,
)
from .lfactors import lfactor_table
from .suites import GERM_POINTS, SUITES, run_suite
from . import __version__


# ---------------------------------------------------------------------------
# serialization


def frac_str(x):
    return str(Fraction(x))


def parse_frac(value, pointer):
    if isinstance(value, bool):
        raise SchemaError(f"{pointer}: expected a rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise SchemaError(f"{pointer}: not a rational: {value!r}")
    raise SchemaError(f"{pointer}: expected an integer or 'a/b' string")


def cyc_json(c):
    return {
        "kind": "cyclotomic",
        "terms": [[frac_str(r), frac_str(v)]
                  for r, v in sorted(c.terms.items())],
    }


def qrational_json(qr):
    return {
        "num": [frac_str(c) for c in qr.num.c],
        "den": [frac_str(c) for c in qr.den.c],
        "var": "q^-s",
    }


def orbital_json(res):
    out = {
        "summands": [
            {"coefficient": cyc_json(c), "rational_function": qrational_json(qr)}
            for c, qr in res.pairs
        ],
        "metadata": {k: str(v) for k, v in sorted(res.metadata.items())},
    }
    try:
        out["value_at_s0"] = cyc_json(res.value_at(Fraction(1)))
    except DomainError:
        out["value_at_s0"] = None
    return out


def packet_json(packet):
    return {
        "terms": [
            {
                "coeff": cyc_json(c),
                "center": [frac_str(x) for x in x0],
                "exps": list(a),
                "freq": [frac_str(x) for x in f0],
            }
            for c, x0, a, f0 in packet.terms
        ]
    }


def parse_matrix_f(value, pointer):
    if not isinstance(value, list) or not value:
        raise SchemaError(f"{pointer}: expected a nonempty matrix")
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != len(value):
            raise SchemaError(f"{pointer}/{i}: matrix must be square")
        rows.append([parse_frac(x, f"{pointer}/{i}/{j}")
                     for j, x in enumerate(row)])
    return mat(rows)


def parse_matrix_e(value, ext, pointer):
    if not isinstance(value, list) or not value:
        raise SchemaError(f"{pointer}: expected a nonempty matrix")
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != len(value):
            raise SchemaError(f"{pointer}/{i}: matrix must be square")
        out = []
        for j, entry in enumerate(row):
            ptr = f"{pointer}/{i}/{j}"
            if not isinstance(entry, list) or len(entry) != 2:
                raise SchemaError(f"{ptr}: expected a [plus, minus] pair")
            out.append(ext.scalar(parse_frac(entry[0], f"{ptr}/0"),
                                  parse_frac(entry[1], f"{ptr}/1")))
        rows.append(out)
    return mat(rows)


_SPACE_KINDS = ("f", "e", "e-minus", "matrix-f", "matrix-e", "s")


def parse_space(value, config, pointer):
    if not isinstance(value, dict):
        raise SchemaError(f"{pointer}: expected an object")
    kind = value.get("kind")
    if kind not in _SPACE_KINDS:
        raise SchemaError(f"{pointer}/kind: expected one of {_SPACE_KINDS}")
    size = value.get("dim", value.get("k", 1))
    if not isinstance(size, int) or size < 1:
        raise SchemaError(f"{pointer}/dim: expected a positive integer")
    F, psi = config.field(), config.psi()
    if kind == "f":
        return f_space(F, psi, size)
    ext = config.ext()
    if kind == "e":
        return e_space(ext, psi, size)
    if kind == "e-minus":
        return e_minus_space(ext, psi, size)
    if kind == "matrix-f":
        return matrix_space_f(F, psi, size)
    if kind == "matrix-e":
        return matrix_space_e(ext, psi, size)
    return s_space(ext, psi, size)


def parse_exp_pairs(value, pointer):
    """The [r, c] pairs of a coefficient sum c e(r) as {r: total c}: a
    repeated exponent adds up."""
    if not isinstance(value, list):
        raise SchemaError(f"{pointer}: expected a list")
    summed = {}
    for i, pair in enumerate(value):
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError(f"{pointer}/{i}: expected [exponent, coefficient]")
        r = parse_frac(pair[0], f"{pointer}/{i}/0")
        summed[r] = summed.get(r, 0) + parse_frac(pair[1], f"{pointer}/{i}/1")
    return summed


def parse_packet(value, config, pointer):
    if not isinstance(value, dict):
        raise SchemaError(f"{pointer}: expected an object")
    space = parse_space(value.get("space"), config, f"{pointer}/space")
    raw_terms = value.get("terms")
    if not isinstance(raw_terms, list):
        raise SchemaError(f"{pointer}/terms: expected a list")
    terms = []
    for i, t in enumerate(raw_terms):
        ptr = f"{pointer}/terms/{i}"
        if not isinstance(t, dict):
            raise SchemaError(f"{ptr}: expected an object")
        coeff = t.get("coeff", 1)
        if isinstance(coeff, dict):
            c = CyclotomicScalar(
                parse_exp_pairs(coeff.get("terms", []), f"{ptr}/coeff/terms"))
        else:
            c = CyclotomicScalar.from_rational(parse_frac(coeff, f"{ptr}/coeff"))
        dim = space.dim

        def vec(name, default, parse=True):
            raw = t.get(name, [default] * dim)
            if not isinstance(raw, list) or len(raw) != dim:
                raise SchemaError(f"{ptr}/{name}: expected {dim} entries")
            if parse:
                return tuple(parse_frac(x, f"{ptr}/{name}/{k}")
                             for k, x in enumerate(raw))
            out = []
            for k, x in enumerate(raw):
                if not isinstance(x, int) or isinstance(x, bool):
                    raise SchemaError(f"{ptr}/{name}/{k}: expected an integer")
                out.append(x)
            return tuple(out)

        terms.append((c, vec("center", 0), vec("exps", 0, parse=False),
                      vec("freq", 0)))
    return WavePacket(space, terms)


def matrix_json(X):
    return [[frac_str(x) for x in row] for row in X]


# ---------------------------------------------------------------------------
# command handlers


def _invariant_lists(payload, pointer="/"):
    a = payload.get("a")
    b = payload.get("b")
    if not isinstance(a, list) or not isinstance(b, list) \
            or len(b) != len(a) + 1:
        raise SchemaError(
            f"{pointer}a,{pointer}b: want n entries a and n+1 entries b")
    av = tuple(parse_frac(x, f"{pointer}a/{i}") for i, x in enumerate(a))
    bv = tuple(parse_frac(x, f"{pointer}b/{i}") for i, x in enumerate(b))
    return av, bv


def cmd_invariants(config, payload, args):
    X = parse_matrix_f(payload.get("matrix"), "/matrix")
    config.check_rank(len(X) - 1, "/matrix")
    a, b = invariants_of(FractionRing(), X)
    return {"a": [frac_str(x) for x in a], "b": [frac_str(x) for x in b]}


def cmd_classify(config, payload, args):
    X = parse_matrix_f(payload.get("matrix"), "/matrix")
    config.check_rank(len(X) - 1, "/matrix")
    return {"class": classify_nilpotent(FractionRing(), X)}


def cmd_section(config, payload, args):
    kind = payload.get("kind", "sigma")
    builders = {"sigma": section_sigma, "sigma-prime": section_sigma_prime,
                "varrho": varrho}
    if kind not in builders:
        raise SchemaError(f"/kind: expected one of {sorted(builders)}")
    a, b = _invariant_lists(payload)
    config.check_rank(len(a), "/a")
    X = builders[kind](FractionRing(), a, b)
    return {"kind": kind, "matrix": matrix_json(X)}


def cmd_transfer_factor(config, payload, args):
    ext = config.ext()
    eta_prime = config.eta_prime()
    setting = payload.get("setting", "lie")
    if setting == "group":
        g1 = parse_matrix_e(payload.get("gamma1"), ext, "/gamma1")
        g2 = parse_matrix_e(payload.get("gamma2"), ext, "/gamma2")
        config.check_rank(len(g1), "/gamma1")
        omega = transfer_factor_group(ext, g1, g2, eta_prime)
        return {"omega": cyc_json(omega), "side": "group"}
    X = parse_matrix_e(payload.get("matrix"), ext, "/matrix")
    config.check_rank(len(X) - 1, "/matrix")
    if setting == "s":
        omega = transfer_factor_S(ext, X, eta_prime)
    elif setting == "lie":
        sign = payload.get("sign", "plus")
        if sign not in ("plus", "minus"):
            raise SchemaError("/sign: expected plus or minus")
        omega = transfer_factor_lie(ext, X, eta_prime, sign=sign)
    else:
        raise SchemaError("/setting: expected lie, s or group")
    from .matrices import QuadExtRing
    a, b = invariants_of(QuadExtRing(ext), X)
    inv = {
        "a": [[frac_str(x.x.as_fraction()), frac_str(x.y.as_fraction())]
              for x in a],
        "b": [[frac_str(x.x.as_fraction()), frac_str(x.y.as_fraction())]
              for x in b],
    }
    return {"omega": cyc_json(omega), "side": setting, "invariants": inv}


def cmd_match(config, payload, args):
    ext = config.ext()
    X = parse_matrix_e(payload.get("matrix"), ext, "/matrix")
    config.check_rank(len(X) - 1, "/matrix")
    forms_raw = payload.get("forms", [[1, 1], [1, config.p]])
    if not isinstance(forms_raw, list) or not forms_raw:
        raise SchemaError("/forms: expected a list of diagonal forms")
    forms = []
    for i, diag in enumerate(forms_raw):
        if not isinstance(diag, list):
            raise SchemaError(f"/forms/{i}: expected a diagonal entry list")
        forms.append(HermitianForm(
            ext, tuple(parse_frac(x, f"/forms/{i}/{j}")
                       for j, x in enumerate(diag))))
    side = match_side(ext, X, config.eta(), forms)
    return {"side": side,
            "disc_classes": [frac_str(w.disc()) for w in forms]}


def cmd_fourier(config, payload, args):
    f = parse_packet(payload.get("packet"), config, "/packet")
    return {"packet": packet_json(f.fourier())}


def cmd_dagger_gen(config, payload, args):
    ext, psi = config.ext(), config.psi()
    kind = payload.get("kind", "scalar")
    m = payload.get("m", 1)
    k = payload.get("k", 2)
    unit = payload.get("unit", 1)
    if not isinstance(m, int) or m < 1:
        raise SchemaError("/m: expected a positive integer")
    if not isinstance(k, int) or k < 1:
        raise SchemaError("/k: expected a positive integer")
    if kind == "scalar":
        data = make_dagger_scalar(ext, psi, m, unit=unit)
        admissible = is_admissible_scalar(ext, psi, m, data.packet)
    elif kind == "column":
        data = make_dagger_column(ext, psi, m, k)
        admissible = is_admissible_column(data)
    elif kind == "matrix":
        data = make_dagger_matrix(ext, psi, m, k)
        admissible = is_admissible_matrix(data)
    else:
        raise SchemaError("/kind: expected scalar, column or matrix")
    return {
        "kind": kind,
        "m": m,
        "shell_valuation": shell_valuation(ext, psi, m),
        "admissible": admissible,
        "packet": packet_json(data.packet),
    }


def _measure_scale(config, args, n):
    """Normalized-measure correction: each multiplicative Tate factor was
    accumulated against the unnormalized d*x (unit shell 1 - 1/q)."""
    mode = args.measure or config.measure
    mode = "normalized" if mode in ("norm", "normalized") else "unnormalized"
    if mode == "unnormalized":
        return mode, Fraction(1)
    q = Fraction(config.p)
    return mode, (1 - 1 / q) ** (-n)


def cmd_oi_rs(config, payload, args):
    f = parse_packet(payload.get("f"), config, "/f")
    X_raw = payload.get("X")
    if not isinstance(X_raw, list):
        raise SchemaError("/X: expected matrix coordinates")
    if X_raw and isinstance(X_raw[0], list):
        Xm = parse_matrix_f(X_raw, "/X")
        X = tuple(x for row in Xm for x in row)
    else:
        X = tuple(parse_frac(x, f"/X/{i}") for i, x in enumerate(X_raw))
    k = int(len(X) ** Fraction(1, 2))
    if k * k != len(X):
        raise SchemaError("/X: expected k^2 coordinates")
    config.check_rank(k - 1, "/X")
    slack = payload.get("slack", 0)
    if not isinstance(slack, int) or slack < 0:
        raise SchemaError("/slack: expected a nonnegative integer")
    res = orbital_rs(X, f, config.eta(),
                     budget=config.budgets["max_cosets"], slack=slack)
    mode, scale = _measure_scale(config, args, k - 1)
    if scale != 1:
        res = res.scale(scale)
    out = orbital_json(res)
    out["measure"] = mode
    return out


def cmd_oi_nilpotent(config, payload, args):
    sign = payload.get("sign", "plus")
    if sign not in ("plus", "minus"):
        raise SchemaError("/sign: expected plus or minus")
    if "f" in payload:
        f = parse_packet(payload["f"], config, "/f")
        k = int(Fraction(f.space.dim) ** Fraction(1, 2))
    else:
        n = payload.get("n", 1)
        if not isinstance(n, int) or n < 1:
            raise SchemaError("/n: expected a positive integer")
        k = n + 1
        f = WavePacket.indicator(
            matrix_space_f(config.field(), config.psi(), k), 0)
    config.check_rank(k - 1, "/n")
    res = orbital_nilpotent(sign, f, config.eta())
    mode, scale = _measure_scale(config, args, k - 1)
    if scale != 1:
        res = res.scale(scale)
    out = orbital_json(res)
    out["measure"] = mode
    out["pole_report"] = [
        {
            "real_poles_in_unit_interval": entry["real_roots_in_unit"],
            "orders": {f"s={s0}{'+' if sg > 0 else '-'}": order
                       for (s0, sg), order in sorted(entry["orders"].items())},
        }
        for entry in res.pole_report(config.p)
    ]
    return out


def cmd_germ_check(config, payload, args):
    ext, psi = config.ext(), config.psi()
    m = payload.get("m", 1)
    r = payload.get("r", max(2 * m, m + 1) + 1 if isinstance(m, int) else 3)
    if not isinstance(m, int) or m < 1:
        raise SchemaError("/m: expected a positive integer")
    if not isinstance(r, int) or r < 1:
        raise SchemaError("/r: expected a positive integer")
    pts_raw = payload.get("points", [list(pt) for pt in GERM_POINTS])
    if not isinstance(pts_raw, list) or not pts_raw:
        raise SchemaError("/points: expected a list of [x1, y1, y0] triples")
    points = []
    for i, pt in enumerate(pts_raw):
        if not isinstance(pt, list) or len(pt) != 3:
            raise SchemaError(f"/points/{i}: expected an [x1, y1, y0] triple")
        points.append(tuple(parse_frac(x, f"/points/{i}/{j}")
                            for j, x in enumerate(pt)))
    phi = make_dagger_scalar(ext, psi, m)
    rep = germ_constant_check(ext, psi, config.eta(), config.eta_prime(),
                              phi, r, points)
    return {
        "mu": cyc_json(rep["mu"]),
        "all_equal": rep["all_equal"],
        "points": [
            {
                "point": [frac_str(x) for x in pt["point"]],
                "value": cyc_json(pt["value"]),
                "transfer_factor": cyc_json(pt["transfer_factor"]),
                "equal": pt["equal"],
            }
            for pt in rep["points"]
        ],
    }


def cmd_theorem_germ_gl(config, payload, args):
    ext, psi = config.ext(), config.psi()
    m = payload.get("m", 1)
    r = payload.get("r", 3)
    omega_tau = payload.get("omega_tau", 1)
    if not isinstance(m, int) or m < 1:
        raise SchemaError("/m: expected a positive integer")
    if not isinstance(r, int) or r < 1:
        raise SchemaError("/r: expected a positive integer")
    if omega_tau not in (1, -1):
        raise SchemaError("/omega_tau: expected 1 or -1")
    phi = make_dagger_scalar(ext, psi, m)
    rep = theorem_germ_gl(ext, psi, config.eta(), phi, r,
                          omega_tau=omega_tau)
    return {
        "lhs": cyc_json(rep["lhs"]),
        "rhs": cyc_json(rep["rhs"]),
        "mu": cyc_json(rep["mu"]),
        "tau_norm_exponent": frac_str(rep["tau_norm_exponent"]),
        "equal": rep["equal"],
    }


def cmd_local_factors(config, payload, args):
    q = payload.get("q", config.p)
    n_max = payload.get("n_max", 4)
    if not isinstance(q, int) or q < 2:
        raise SchemaError("/q: expected an integer >= 2")
    if not isinstance(n_max, int) or n_max < 1:
        raise SchemaError("/n_max: expected a positive integer")
    rows = []
    for row in lfactor_table(q, n_max):
        rows.append({
            "name": row["name"],
            "rational_function": {
                "num": [frac_str(c) for c in row["rational_function"].num.c],
                "den": [frac_str(c) for c in row["rational_function"].den.c],
                "var": "q^-1",
            },
            "value_at_q": frac_str(row["value_at_q"]),
            "exponent": row["exponent"],
        })
    return {"q": q, "table": rows}


_SUITE_FLAGS = ("n", "samples", "pairs", "m", "r")


def _int_or_text(text):
    """A flag's integer value; text that is not an integer is passed on
    as it is, for run_suite to reject with the flag's pointer."""
    try:
        return int(text)
    except ValueError:
        return text


def cmd_verify_suite(config, payload, args):
    flags = {key: _int_or_text(getattr(args, key)) for key in _SUITE_FLAGS
             if getattr(args, key) is not None}
    return run_suite(args.suite, config, **flags)


COMMANDS = {
    "invariants": cmd_invariants,
    "classify": cmd_classify,
    "section": cmd_section,
    "transfer-factor": cmd_transfer_factor,
    "match": cmd_match,
    "fourier": cmd_fourier,
    "dagger-gen": cmd_dagger_gen,
    "oi-rs": cmd_oi_rs,
    "oi-nilpotent": cmd_oi_nilpotent,
    "germ-check": cmd_germ_check,
    "theorem-germ-gl": cmd_theorem_germ_gl,
    "local-factors": cmd_local_factors,
    "verify-suite": cmd_verify_suite,
}


# ---------------------------------------------------------------------------
# entry point


@functools.cache
def _parser():
    """The one argument parser of the process, built on first use; each
    parse_args call still returns a fresh Namespace.  The suite name and
    the suite flags are plain strings here: run_suite checks them, so a
    bad one gets the JSON error document, not argparse's usage text."""
    parser = argparse.ArgumentParser(
        prog="padharm",
        description="Exact p-adic harmonic-analysis computations, JSON in/out.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config", metavar="PATH",
                        help="JSON configuration document")
    parser.add_argument("--out", metavar="PATH",
                        help="write the JSON result here instead of stdout")
    parser.add_argument("--payload", metavar="PATH",
                        help="JSON payload (default: stdin when piped)")
    parser.add_argument("--measure", choices=["norm", "unnorm"],
                        help="override the configured measure mode")
    parser.add_argument("--seed", type=int, help="seed for sampled suites")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cp = sub.add_parser(name)
        if name == "verify-suite":
            cp.add_argument("suite", help="one of " + ", ".join(SUITES))
            for flag in _SUITE_FLAGS:
                cp.add_argument(f"--{flag}")
    return parser


def _load_json(path, pointer):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"{pointer}: cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{pointer}: invalid JSON in {path}: {exc}")


def run(command, config, payload, args):
    """Dispatch a single command; pure apart from reading the arguments."""
    if command not in COMMANDS:
        raise SchemaError(f"/command: unknown command {command!r}")
    return COMMANDS[command](config, payload, args)


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        doc = _load_json(args.config, "/config") if args.config else {}
        if not isinstance(doc, dict):
            raise SchemaError("/config: expected a JSON object")
        if args.seed is not None:
            doc["seed"] = args.seed
        config = RunConfig(doc)
        payload = {}
        if args.payload:
            payload = _load_json(args.payload, "/payload")
        elif not sys.stdin.isatty() and args.command != "verify-suite":
            raw = sys.stdin.read().strip()
            if raw:
                try:
                    payload = json.loads(raw)
                except json.JSONDecodeError as exc:
                    raise SchemaError(f"/payload: invalid JSON on stdin: {exc}")
        if not isinstance(payload, dict):
            raise SchemaError("/payload: expected a JSON object")
        result = run(args.command, config, payload, args)
    except ScaleExceeded as exc:
        _emit({"error": {"type": "ScaleExceeded", "message": str(exc)}},
              args.out, err=True)
        return 3
    except DomainError as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}},
              args.out, err=True)
        return 2
    _emit({"command": args.command, "result": result}, args.out)
    return 0


def _emit(obj, out_path, err=False):
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        if err:
            sys.stderr.write(text)
    else:
        (sys.stderr if err else sys.stdout).write(text)


if __name__ == "__main__":
    sys.exit(main())
