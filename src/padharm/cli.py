"""Batch command-line front end.

JSON in, JSON out: every command reads an optional JSON payload
(`--payload PATH`, or stdin when piped), runs one exact operation, and
prints a deterministic JSON document (sorted keys, fixed formatting).
Exit codes: 0 success, 2 domain errors (including payload schema
violations, reported with JSON pointer paths), 3 scale-budget overruns.

Every value from outside the program goes through the readers of
`config` (`read_int`, `read_fraction`, `RunConfig`): payload fields, and
the top-level `--seed` and `--measure`, which become the config
document's `seed` and `measure` (so a bad one exits 2 with `/seed` or
`/measure`, and `--measure` takes the config's spellings).
"""

import argparse
import errno
import functools
import json
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from math import gcd, isqrt

from .cyclotomic import CyclotomicScalar, sqrt_prime
from .errors import DomainError, ScaleExceeded, SchemaError
from .config import RunConfig, read_fraction, read_int
from .matrices import (
    FractionRing,
    QuadExtRing,
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
    separating_forms,
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
    GERM_POINTS,
    check_descent_level,
    default_germ_level,
    germ_constant_check,
    orbital_nilpotent,
    orbital_rs,
    theorem_germ_gl,
)
from .lfactors import lfactor_table
from .padic import val_p
from .suites import SUITES, run_suite, suite_flags
from . import __version__


# ---------------------------------------------------------------------------
# serialization


# numerators and denominators up to this many bits print in at most 4215
# digits, under CPython's default int-to-str limit of 4300 digits; the
# bound reads bit_length, so it does not depend on that limit's setting
MAX_PRINTED_BITS = 14000


def ratio_str(n, d):
    """n / d as its `Fraction` prints, for ints n and d > 0."""
    g = gcd(n, d)
    n, d = n // g, d // g
    if (abs(n) | d).bit_length() > MAX_PRINTED_BITS:  # the longer of n, d
        raise ScaleExceeded(
            f"a result has more than {MAX_PRINTED_BITS} bits to print")
    return f"{n}/{d}" if d != 1 else str(n)


def frac_str(x):
    x = Fraction(x)
    return ratio_str(x.numerator, x.denominator)


def cyc_json(c):
    """The (v / den) e(k / n), sorted by k, hence by exponent."""
    n, den = c.n, c.den
    return {
        "kind": "cyclotomic",
        "terms": [[ratio_str(k, n), ratio_str(v, den)]
                  for k, v in sorted(c.coeffs.items())],
    }


def qrational_json(qr, var="q^-s"):
    """N and D over lc(D), the monic denominator."""
    lc = qr.D[-1]
    return {
        "num": [ratio_str(x, lc) for x in qr.N],
        "den": [ratio_str(x, lc) for x in qr.D],
        "var": var,
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
                "center": [ratio_str(*x) for x in x0],
                "exps": list(a),
                "freq": [ratio_str(*x) for x in f0],
            }
            for c, x0, a, f0 in packet.rows
        ]
    }


def parse_list(value, pointer, entry=read_fraction, length=None):
    """A list (of `length` entries, when given) as a tuple whose i-th
    entry is entry(value[i], pointer/i)."""
    if not isinstance(value, list):
        raise SchemaError(f"{pointer}: expected a list")
    if length is not None and len(value) != length:
        raise SchemaError(f"{pointer}: expected {length} entries")
    return tuple(entry(x, f"{pointer}/{i}") for i, x in enumerate(value))


def parse_matrix(value, pointer, entry=read_fraction):
    """A nonempty square matrix, each entry read by `entry`."""
    if not isinstance(value, list) or not value:
        raise SchemaError(f"{pointer}: expected a nonempty matrix")
    return mat(parse_list(row, f"{pointer}/{i}", entry, len(value))
               for i, row in enumerate(value))


def e_entry(ext):
    """The entry reader for E: a [plus, minus] pair of rationals."""
    return lambda value, pointer: ext.scalar(
        *parse_list(value, pointer, length=2))


_SPACE_KINDS = ("f", "e", "e-minus", "matrix-f", "matrix-e", "s")


def parse_space(value, config, pointer):
    if not isinstance(value, dict):
        raise SchemaError(f"{pointer}: expected an object")
    kind = value.get("kind")
    if kind not in _SPACE_KINDS:
        raise SchemaError(f"{pointer}/kind: expected one of {_SPACE_KINDS}")
    size = read_int(value.get("dim", value.get("k", 1)), f"{pointer}/dim",
                    low=1)
    config.check_rank(size - 1, f"{pointer}/dim")
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
    summed = {}
    pairs = parse_list(value, pointer, functools.partial(parse_list, length=2))
    for r, c in pairs:
        summed[r] = summed.get(r, 0) + c
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
            c = CyclotomicScalar.from_rational(
                read_fraction(coeff, f"{ptr}/coeff"))

        def vec(name, read):
            return parse_list(t.get(name, [0] * space.dim), f"{ptr}/{name}",
                              read, space.dim)

        terms.append((c, vec("center", read_fraction), vec("exps", read_int),
                      vec("freq", read_fraction)))
    return WavePacket(space, terms)


def matrix_json(X):
    return [[frac_str(x) for x in row] for row in X]


def check_positive_rank(config, n, pointer):
    """`config.check_rank` for n >= 1: at n = 0 Delta_+ is a 0 x 0
    determinant, and sigma' and varrho have no (n+1) x (n+1) shape."""
    if n < 1:
        raise SchemaError(f"{pointer}: expected rank n >= 1, a matrix of "
                          "size 2 or more")
    return config.check_rank(n, pointer)


# ---------------------------------------------------------------------------
# command handlers


def cmd_invariants(config, payload):
    X = parse_matrix(payload.get("matrix"), "/matrix")
    config.check_rank(len(X) - 1, "/matrix")
    a, b = invariants_of(FractionRing(), X)
    return {"a": [frac_str(x) for x in a], "b": [frac_str(x) for x in b]}


def cmd_classify(config, payload):
    X = parse_matrix(payload.get("matrix"), "/matrix")
    check_positive_rank(config, len(X) - 1, "/matrix")
    return {"class": classify_nilpotent(FractionRing(), X)}


def cmd_section(config, payload):
    kind = payload.get("kind", "sigma")
    builders = {"sigma": section_sigma, "sigma-prime": section_sigma_prime,
                "varrho": varrho}
    if not isinstance(kind, str) or kind not in builders:
        raise SchemaError(f"/kind: expected one of {sorted(builders)}")
    a = parse_list(payload.get("a"), "/a")
    b = parse_list(payload.get("b"), "/b", length=len(a) + 1)
    if kind == "sigma":
        config.check_rank(len(a), "/a")
    else:
        check_positive_rank(config, len(a), "/a")
    X = builders[kind](FractionRing(), a, b)
    return {"kind": kind, "matrix": matrix_json(X)}


def cmd_transfer_factor(config, payload):
    ext = config.ext()
    eta_prime = config.eta_prime()
    setting = payload.get("setting", "lie")
    if setting == "group":
        g1 = parse_matrix(payload.get("gamma1"), "/gamma1", e_entry(ext))
        g2 = parse_matrix(payload.get("gamma2"), "/gamma2", e_entry(ext))
        config.check_rank(len(g1), "/gamma1")
        if len(g2) != len(g1) + 1:
            raise SchemaError(f"/gamma2: expected a matrix of size "
                              f"{len(g1) + 1}, one more than /gamma1")
        omega = transfer_factor_group(ext, g1, g2, eta_prime)
        return {"omega": cyc_json(omega), "side": "group"}
    X = parse_matrix(payload.get("matrix"), "/matrix", e_entry(ext))
    check_positive_rank(config, len(X) - 1, "/matrix")
    if setting == "s":
        omega = transfer_factor_S(ext, X, eta_prime)
    elif setting == "lie":
        sign = payload.get("sign", "plus")
        if sign not in ("plus", "minus"):
            raise SchemaError("/sign: expected plus or minus")
        omega = transfer_factor_lie(ext, X, eta_prime, sign=sign)
    else:
        raise SchemaError("/setting: expected lie, s or group")
    a, b = invariants_of(QuadExtRing(ext), X)
    inv = {name: [[frac_str(x.x), frac_str(x.y)] for x in values]
           for name, values in (("a", a), ("b", b))}
    return {"omega": cyc_json(omega), "side": setting, "invariants": inv}


def _s_entry(ext):
    """The entry reader for s, the -1 eigenspace of M(E): a [0, minus]
    pair, tau times a rational."""
    def read(value, pointer):
        plus, minus = parse_list(value, pointer, length=2)
        if plus:
            raise SchemaError(
                f"{pointer}/0: the plus part of an entry of s must be 0")
        return ext.scalar(plus, minus)
    return read


def _form_entry(value, pointer):
    """A diagonal entry of a Hermitian form: a nonzero rational."""
    x = read_fraction(value, pointer)
    if not x:
        raise SchemaError(
            f"{pointer}: a form's diagonal entry must be nonzero")
    return x


def cmd_match(config, payload):
    ext = config.ext()
    X = parse_matrix(payload.get("matrix"), "/matrix", _s_entry(ext))
    check_positive_rank(config, len(X) - 1, "/matrix")
    eta = config.eta()
    if "forms" in payload:
        forms = [HermitianForm(ext, diag) for diag in parse_list(
            payload["forms"], "/forms",
            functools.partial(parse_list, entry=_form_entry))]
        if not forms:
            raise SchemaError("/forms: expected a nonempty list of diagonal forms")
    else:
        forms = separating_forms(ext, eta)
    side = match_side(ext, X, eta, forms)
    return {"side": side,
            "disc_classes": [frac_str(w.disc()) for w in forms]}


def _too_long(p, e):
    """Whether p^e has more than MAX_PRINTED_BITS bits; p^e has more than
    e bits, so it is computed only for e up to the bound."""
    return e > MAX_PRINTED_BITS or (p ** e).bit_length() > MAX_PRINTED_BITS


def cmd_fourier(config, payload):
    f = parse_packet(payload.get("packet"), config, "/packet")
    # a row's new coefficient is c p^(k/2) psi(...); psi only moves keys,
    # so each printed coefficient is p^w s, w the floor of k/2 and s a
    # coefficient of c (c sqrt(p) for odd k), stored as an int over c.den.
    # p^|w + v(s)| divides its numerator or denominator: when that is too
    # long, printing exits 3 anyway, so refusing before p^w is built
    # refuses no answer
    sp = f.space
    p = sp.F.p
    for c, _, a, _ in f.rows:
        k = sp.vol_exponent(a)
        c = c * sqrt_prime(p) if k % 2 else c
        w = k // 2 - val_p(c.den, p)
        for s in c.coeffs.values():
            if _too_long(p, abs(w + val_p(s, p))):
                raise ScaleExceeded(
                    f"/packet: a transformed coefficient has more than "
                    f"{MAX_PRINTED_BITS} bits to print")
    return {"packet": packet_json(f.fourier())}


def cmd_dagger_gen(config, payload):
    ext, psi = config.ext(), config.psi()
    kind = payload.get("kind", "scalar")
    m = read_int(payload.get("m", 1), "/m", low=1)
    k = read_int(payload.get("k", 2), "/k", low=1)
    config.check_rank(k - 1, "/k")
    unit = read_fraction(payload.get("unit", 1), "/unit")
    if unit == 0 or val_p(unit, config.p) != 0:
        raise SchemaError("/unit: expected a p-adic unit")
    if kind not in ("scalar", "column", "matrix"):
        raise SchemaError("/kind: expected scalar, column or matrix")
    # the packet holds the shell frequency, whose reduced denominator is
    # p^e: refuse before building it.  A 1x1 matrix has no dagger entry;
    # its level keeps the bound on p^m, which refuses an m with too many
    # digits to print as shell_valuation
    one_by_one = kind == "matrix" and k == 1
    e = m if one_by_one else -shell_valuation(ext, psi, m)
    if e > 0 and _too_long(config.p, e):
        raise ScaleExceeded(
            f"/m: p^m has more than {MAX_PRINTED_BITS} bits, the bound on "
            "a dagger level" if one_by_one else
            f"/m: the shell frequency has more than {MAX_PRINTED_BITS} "
            "bits to print")
    if kind == "scalar":
        data = make_dagger_scalar(ext, psi, m, unit=unit)
        admissible = is_admissible_scalar(ext, psi, m, data.packet)
    elif kind == "column":
        data = make_dagger_column(ext, psi, m, k)
        admissible = is_admissible_column(data)
    else:
        data = make_dagger_matrix(ext, psi, m, k)
        admissible = is_admissible_matrix(data)
    return {
        "kind": kind,
        "m": m,
        "shell_valuation": shell_valuation(ext, psi, m),
        "admissible": admissible,
        "packet": packet_json(data.packet),
    }


def _orbital_json_in_measure(res, config, n):
    """orbital_json of a rank-n result in the configured measure.  Each
    multiplicative Tate factor was accumulated against the unnormalized
    d*x (unit shell 1 - 1/q), so the normalized measure scales by
    (1 - 1/q)^(-n)."""
    if config.measure == "normalized":
        res = res.scale((1 - Fraction(1, config.p)) ** -n)
    out = orbital_json(res)
    out["measure"] = config.measure
    return out


def cmd_oi_rs(config, payload):
    f = parse_packet(payload.get("f"), config, "/f")
    X_raw = payload.get("X")
    if isinstance(X_raw, list) and X_raw and isinstance(X_raw[0], list):
        X = tuple(x for row in parse_matrix(X_raw, "/X") for x in row)
    else:
        X = parse_list(X_raw, "/X")
    k = isqrt(len(X))
    if k < 2 or k * k != len(X):
        raise SchemaError("/X: expected k^2 coordinates with k >= 2")
    if len(X) != f.space.dim:
        raise SchemaError(f"/X: expected {f.space.dim} coordinates, "
                          "the dimension of /f")
    config.check_rank(k - 1, "/X")
    res = orbital_rs(X, f, config.eta())
    return _orbital_json_in_measure(res, config, k - 1)


def cmd_oi_nilpotent(config, payload):
    sign = payload.get("sign", "plus")
    if sign not in ("plus", "minus"):
        raise SchemaError("/sign: expected plus or minus")
    if "f" in payload:
        f = parse_packet(payload["f"], config, "/f")
        n = config.check_rank(isqrt(f.space.dim) - 1, "/n")
    else:
        # bounded before the (n+1)^2 coordinates are built
        n = config.check_rank(read_int(payload.get("n", 1), "/n", low=1), "/n")
        f = WavePacket.indicator(
            matrix_space_f(config.field(), config.psi(), n + 1), 0)
    res = orbital_nilpotent(sign, f, config.eta())
    out = _orbital_json_in_measure(res, config, n)
    # per summand: the pole order of its denominator at T = +q^(-1/2),
    # i.e. s = 1/2, and a Sturm count of its real roots in (0, 1]
    q_inv = Fraction(1, config.p)
    out["pole_report"] = [
        {"real_poles_in_unit_interval": qr.real_pole_count(0, 1),
         "orders": {"s=1/2+": qr.pole_order_at_sqrt(q_inv, 1)}}
        for _, qr in res.pairs
    ]
    return out


def cmd_germ_check(config, payload):
    ext, psi = config.ext(), config.psi()
    m = read_int(payload.get("m", 1), "/m", low=1)
    r = read_int(payload.get("r", default_germ_level(m)), "/r", low=1)
    points = parse_list(payload.get("points", [list(pt) for pt in GERM_POINTS]),
                        "/points", functools.partial(parse_list, length=3))
    if not points:
        raise SchemaError("/points: expected a nonempty list of [x1, y1, y0]")
    # the level rule before the dagger scalar, whose p^(2m) grows with m
    check_descent_level(m, r)
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


def cmd_theorem_germ_gl(config, payload):
    ext, psi = config.ext(), config.psi()
    m = read_int(payload.get("m", 1), "/m", low=1)
    r = read_int(payload.get("r", default_germ_level(m)), "/r", low=1)
    omega_tau = read_int(payload.get("omega_tau", 1), "/omega_tau")
    if omega_tau not in (1, -1):
        raise SchemaError("/omega_tau: expected 1 or -1")
    # the level rule before the dagger scalar, whose p^(2m) grows with m
    check_descent_level(m, r)
    phi = make_dagger_scalar(ext, psi, m)
    rep = theorem_germ_gl(ext, psi, config.eta(), phi, r, omega_tau=omega_tau)
    return {
        "lhs": cyc_json(rep["lhs"]),
        "rhs": cyc_json(rep["rhs"]),
        "mu": cyc_json(rep["mu"]),
        "tau_norm_exponent": frac_str(rep["tau_norm_exponent"]),
        "equal": rep["equal"],
    }


def cmd_local_factors(config, payload):
    q = read_int(payload.get("q", config.p), "/q", low=2)
    n_max = read_int(payload.get("n_max", 4), "/n_max", low=1)
    # the table's work grows steeply with n_max: bound it like every rank
    config.check_rank(n_max - 1, "/n_max")
    rows = [{"name": row["name"],
             "rational_function": qrational_json(row["rational_function"],
                                                 var="q^-1"),
             "value_at_q": frac_str(row["value_at_q"]),
             "exponent": row["exponent"]}
            for row in lfactor_table(q, n_max)]
    return {"q": q, "table": rows}


# the flags of the suites, in table order; their seed comes from the
# top-level --seed
_SUITE_FLAGS = tuple(dict.fromkeys(
    flag for name in SUITES for flag in suite_flags(name)))


def _int_or_text(text):
    """A flag's integer value; text that is not an integer is passed on
    as it is, for read_int to reject with the flag's pointer."""
    try:
        return int(text)
    except ValueError:
        return text


def cmd_verify_suite(config, payload):
    """The payload is the suite name and the flags given on the command
    line; run_suite checks both."""
    flags = dict(payload)
    return run_suite(flags.pop("suite"), config, **flags)


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
    parse_args call still returns a fresh Namespace.  `--measure`,
    `--seed`, the suite name and the suite flags are plain strings here:
    RunConfig and run_suite check them, so a bad one gets the JSON error
    document with its pointer, not argparse's usage text."""
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
    parser.add_argument("--measure",
                        help="override the configured measure: normalized "
                             "(norm) or unnormalized (unnorm)")
    parser.add_argument("--seed", help="seed for sampled suites")
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
    except ValueError as exc:  # JSONDecodeError, or an over-long integer
        raise SchemaError(f"{pointer}: invalid JSON in {path}: {exc}")


def _read_payload(args):
    """The command's payload: for verify-suite its suite name and flags,
    otherwise the --payload file or piped stdin (default {}, also when
    stdin is a terminal or closed)."""
    if args.command == "verify-suite":
        flags = {key: _int_or_text(getattr(args, key)) for key in _SUITE_FLAGS
                 if getattr(args, key) is not None}
        return {"suite": args.suite, **flags}
    if args.payload:
        payload = _load_json(args.payload, "/payload")
    elif sys.stdin is None or sys.stdin.isatty():
        payload = {}
    else:
        raw = sys.stdin.read().strip()
        try:
            payload = json.loads(raw) if raw else {}
        except ValueError as exc:  # JSONDecodeError, or an over-long integer
            raise SchemaError(f"/payload: invalid JSON on stdin: {exc}")
    if not isinstance(payload, dict):
        raise SchemaError("/payload: expected a JSON object")
    return payload


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        doc = _load_json(args.config, "/config") if args.config else {}
        if not isinstance(doc, dict):
            raise SchemaError("/config: expected a JSON object")
        # the top-level flags override the document's members and are
        # checked with them
        if args.seed is not None:
            doc["seed"] = _int_or_text(args.seed)
        if args.measure is not None:
            doc["measure"] = args.measure
        config = RunConfig(doc)
        with config.scope():
            result = COMMANDS[args.command](config, _read_payload(args))
    except ScaleExceeded as exc:
        return _finish(_error(exc), args.out, 3)
    except DomainError as exc:
        return _finish(_error(exc), args.out, 2)
    return _finish({"command": args.command, "result": result}, args.out, 0)


def _error(exc):
    return {"error": {"type": type(exc).__name__, "message": str(exc)}}


def _finish(obj, out_path, code):
    """Emit obj (an error document when code is nonzero) and return code;
    an --out path that cannot be written, or a closed stdout, ends as a
    SchemaError (exit 2)."""
    try:
        _emit(obj, out_path, err=bool(code))
    except OSError as exc:
        error = SchemaError(
            f"/out: cannot write {out_path or 'stdout'}: {exc}")
        _emit(_error(error), None, err=True)
        return 2
    return code


def json_text(obj):
    """obj as `json.dumps(obj, sort_keys=True, indent=2)` writes it, byte
    for byte, built by `_write` into one list.

    json's C encoder does not take `indent`, so json.dumps with an indent
    runs its pure-Python generator; this writer takes the same strings
    from json's C `encode_basestring_ascii`, and on the documents of the
    perfbench cli-queries mix it takes 16 us against 56 us (CPython
    3.11, a 2-vCPU Xeon).  It takes the types the commands build: dicts with str keys,
    lists, tuples, str, int, bool and None.  Any other value, a float
    included (no answer is a float), or a key that is not a str, raises
    TypeError."""
    out = []
    _write(obj, out, "\n")
    return "".join(out)


def _write(obj, out, nl):
    """Append the JSON of obj to out; nl is the newline and indentation
    of obj's own line.  The members of a container start a line of
    their own, two spaces deeper; a str member, the commonest, is
    quoted in place."""
    if type(obj) is str:
        out.append(_quote(obj))
    elif type(obj) is dict:
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(obj):
            value = obj[key]
            out.append(sep)
            out.append(_quote(key))
            if type(value) is str:
                out.append(": " + _quote(value))
            else:
                out.append(": ")
                _write(value, out, inner)
            sep = "," + inner
        out.append(nl + "}")
    elif type(obj) is list or type(obj) is tuple:
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for value in obj:
            out.append(sep)
            if type(value) is str:
                out.append(_quote(value))
            else:
                _write(value, out, inner)
            sep = "," + inner
        out.append(nl + "]")
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif type(obj) is int:
        out.append(int.__repr__(obj))
    else:
        raise TypeError(
            f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit(obj, out_path, err=False):
    """Write obj as JSON to out_path, or else to stdout (stderr when err);
    with out_path, an error document is echoed to stderr as well, and a
    closed stderr is skipped.  The text is `json_text(obj)` and a
    newline: `json.dumps(obj, sort_keys=True, indent=2)` byte for byte.
    out_path is rewritten in place and trimmed only when it was longer,
    because emptying it first freed its blocks on every request: on an
    ext4 disk mounted with discard that took 40-57 us of a 50-66 us
    write, against 2-7 us in place."""
    text = json_text(obj) + "\n"
    if out_path:
        data = text.encode("utf-8")
        with open(os.open(out_path, os.O_WRONLY | os.O_CREAT, 0o666),
                  "wb") as fh:
            longer = os.fstat(fh.fileno()).st_size > len(data)
            fh.write(data)
            if longer:
                fh.truncate()
    elif not err:
        if sys.stdout is None:
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        sys.stdout.write(text)
    if err and sys.stderr is not None:
        try:
            sys.stderr.write(text)
        except OSError:  # fd 2 closed, or reused by a file not open for writing
            pass


if __name__ == "__main__":
    sys.exit(main())
