"""CyclotomicScalar computes on ints: int coefficients over one
denominator.  No function of cyclotomic.py names `Fraction` except the
few that take a rational in or hand one out (`__init__`,
`from_rational`, `root_of_unity`, `_exact` and `_coerce` read their
input, `as_rational` returns a value, `__repr__` prints, and
`sqrt_rational_power` reads its exponent), and no function divides with
`/`.  psi's values are built from int pairs, through
`root_of_unity_ratio`.  The library reads no Fraction view: no `.terms`
of a scalar or a packet is read in orbital, cells, dagger or the CLI,
and the scalar has no `terms`.  An edit that
brings Fraction arithmetic back into an operation, the zero test or a
psi value fails here; the differential test checks every operation
against the Fraction-keyed oracle, and every zero and rational value
against the trace form, at conductors with primes up to 13.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import FractionCyclotomic, cyc_terms, trace_rational
from padharm.cyclotomic import CyclotomicScalar, _normal
from test_cyclotomic import assert_normal

SRC = Path(__file__).resolve().parents[1] / "src" / "padharm"

FRACTION_USERS = {
    ("CyclotomicScalar", "__init__"),
    ("CyclotomicScalar", "from_rational"),
    ("CyclotomicScalar", "root_of_unity"),
    ("CyclotomicScalar", "as_rational"),
    ("CyclotomicScalar", "__repr__"),
    (None, "_exact"),
    (None, "_coerce"),
    (None, "sqrt_rational_power"),
}

# the arithmetic that must stay on ints; listed so that a rename cannot
# take a kernel out of the check unnoticed
KERNELS = {
    (None, name) for name in (
        "_normal", "_at", "_minus", "_rational", "legendre",
        "sqrt_prime")
} | {
    ("CyclotomicScalar", name) for name in (
        "root_of_unity_ratio", "zero", "one", "__add__", "__neg__",
        "__sub__", "__mul__", "conj", "_reduced", "is_zero", "__eq__",
        "__hash__", "__bool__")
}

# the functions that build psi's values, per module
PSI_BUILDERS = {
    "characters.py": [("AdditiveCharacter", "__call__")],
    "spaces.py": [(None, "_psi_pair")],
    "cells.py": [(None, "cell_value")],
}


def _functions(tree):
    """(class or None, name) -> node of each top-level function and
    method; nested functions belong to the one around them."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            out[None, node.name] = node
        elif isinstance(node, ast.ClassDef):
            out.update({(node.name, item.name): item for item in node.body
                        if isinstance(item, ast.FunctionDef)})
    return out


def _tree(name="cyclotomic.py"):
    return ast.parse((SRC / name).read_text())


def _names(node):
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def test_only_the_input_output_and_view_name_fraction():
    functions = _functions(_tree())
    assert KERNELS <= set(functions), sorted(KERNELS - set(functions))
    users = {key for key, node in functions.items()
             if "Fraction" in _names(node)}
    assert users <= FRACTION_USERS, sorted(users - FRACTION_USERS)
    assert not users & KERNELS


def test_no_true_division():
    divisions = [node.lineno for node in ast.walk(_tree())
                 if isinstance(node, (ast.BinOp, ast.AugAssign))
                 and isinstance(node.op, ast.Div)]
    assert divisions == []


def test_psi_values_are_built_from_int_pairs():
    # the psi routes reach root_of_unity_ratio with an int pair, that of
    # frac_part_ratio or of the cell walk; none builds a Fraction phase
    for module, keys in PSI_BUILDERS.items():
        functions = _functions(_tree(module))
        for key in keys:
            names = _names(functions[key])
            assert "root_of_unity_ratio" in names, (module, key)
            assert not names & {"Fraction", "root_of_unity", "phase"}
    ratio = _functions(_tree("characters.py"))[None, "frac_part_ratio"]
    assert "Fraction" not in _names(ratio)


def test_the_library_reads_no_fraction_view():
    # packets are read as their int rows and scalars as their int keys and
    # coefficients; only spaces.riemann_fourier, an independent route,
    # reads the packet's `terms`
    for module in ("orbital.py", "cells.py", "dagger.py", "cli.py"):
        reads = [node.lineno for node in ast.walk(_tree(module))
                 if isinstance(node, ast.Attribute) and node.attr == "terms"]
        assert reads == [], module
    assert ("CyclotomicScalar", "terms") not in _functions(_tree())
    assert not hasattr(CyclotomicScalar, "terms")


def test_floats_are_refused():
    # 0.1 is the binary fraction 3602879701896397 / 2^55, which would
    # become the conductor
    for terms in ({0.1: 1, 0: 1}, {0: 0.5}, {Fraction(1, 3): 2.0}):
        with pytest.raises(TypeError):
            CyclotomicScalar(terms)
    with pytest.raises(TypeError):
        CyclotomicScalar.from_rational(0.1)
    with pytest.raises(TypeError):
        CyclotomicScalar.root_of_unity(0.1)
    with pytest.raises(TypeError):
        CyclotomicScalar.one() + 0.5
    with pytest.raises(TypeError):
        CyclotomicScalar.one() * 0.5


def test_the_public_constructor_takes_exact_input():
    x = CyclotomicScalar({"1/10": 1, Fraction(-9, 10): 2, 0: Fraction(3, 4),
                          Fraction(1, 6): "5/6"})
    assert cyc_terms(x) == {Fraction(0): Fraction(3, 4), Fraction(1, 10): 3,
                       Fraction(1, 6): Fraction(5, 6)}
    assert (x.n, x.den) == (30, 12)
    assert_normal(x)


# -- against the Fraction-keyed oracle and the trace form --------------------

# divisors of 360, and 7 11 13 and 2 3 5 7 11, so that primes above the
# key bound K + 1 of the zero test are drawn
CONDUCTORS = tuple(d for d in range(1, 361) if 360 % d == 0) + (1001, 2310)
rationals = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-40, max_value=40, max_denominator=72))


def _oracle_terms(pairs):
    """The oracle's {r in [0, 1): c} of a list of (r, c): a key whose sum
    reaches zero is dropped and, if it comes back, comes back last."""
    t = {}
    for r, c in pairs:
        r = Fraction(r) % 1
        c = t.get(r, 0) + Fraction(c)
        if c:
            t[r] = c
        else:
            t.pop(r, None)
    return t


leaves = st.one_of(
    # c e(k/n) stored at conductor n, even where k/n has a smaller
    # denominator
    st.tuples(st.just("stored"), st.sampled_from(CONDUCTORS),
              st.integers(0, 2309), rationals),
    # e(num / den), num and den not necessarily coprime
    st.tuples(st.just("ratio"), st.integers(-400, 400),
              st.sampled_from(CONDUCTORS)),
    st.tuples(st.just("rational"), rationals),
    # c (e(1/p) + ... + e((p-1)/p)) e(k/n), which is -c e(k/n): a full
    # row of the zero test at p
    st.tuples(st.just("relation"), st.sampled_from(CONDUCTORS),
              st.integers(0, 2309), st.sampled_from((2, 3, 5, 7, 11, 13)),
              rationals),
    # the public constructor on raw keys, colliding ones included
    st.tuples(st.just("public"), st.lists(st.tuples(
        st.fractions(min_value=-2, max_value=2, max_denominator=12),
        rationals), max_size=4)),
)
chains = st.recursive(leaves, lambda kids: st.one_of(
    st.tuples(st.sampled_from(("+", "-", "*")), kids, kids),
    st.tuples(st.sampled_from(("+q", "q+", "*q", "q*", "-q")), kids,
              rationals),
    st.tuples(st.sampled_from(("neg", "conj")), kids)), max_leaves=8)


def _both(chain, out):
    """The value of chain in both implementations, appending the pair of
    every node to out."""
    op, *args = chain
    if op == "stored":
        n, k, c = args
        k %= n
        c = Fraction(c)
        pair = (_normal(n, {k: c.numerator}, c.denominator) if c
                else CyclotomicScalar.zero(),
                FractionCyclotomic(_oracle_terms([(Fraction(k, n), c)])))
    elif op == "ratio":
        num, den = args
        pair = (CyclotomicScalar.root_of_unity_ratio(num, den),
                FractionCyclotomic({Fraction(num, den) % 1: Fraction(1)}))
    elif op == "rational":
        (c,) = args
        pair = (CyclotomicScalar.from_rational(c),
                FractionCyclotomic(_oracle_terms([(0, c)])))
    elif op == "relation":
        n, k, p, c = args
        raw = {Fraction(k, n) + Fraction(b, p): c for b in range(1, p)}
        pair = (CyclotomicScalar(raw),
                FractionCyclotomic(_oracle_terms(raw.items())))
    elif op == "public":
        (pairs,) = args
        raw = {}
        for r, c in pairs:
            raw[r] = raw.get(r, 0) + c
        pair = (CyclotomicScalar(raw),
                FractionCyclotomic(_oracle_terms(raw.items())))
    elif op in ("neg", "conj"):
        x, y = _both(args[0], out)
        pair = (-x, -y) if op == "neg" else (x.conj(), y.conj())
    elif op in ("+", "-", "*"):
        (x1, y1), (x2, y2) = _both(args[0], out), _both(args[1], out)
        pair = {"+": (x1 + x2, y1 + y2), "-": (x1 - x2, y1 - y2),
                "*": (x1 * x2, y1 * y2)}[op]
    else:
        (x, y), q = _both(args[0], out), args[1]
        yq = FractionCyclotomic(_oracle_terms([(0, q)]))
        # q + x is x.__radd__(q), which is x + q: the same dict order
        pair = {"+q": (x + q, y + yq), "q+": (q + x, y + yq),
                "*q": (x * q, y * yq), "q*": (q * x, y * yq),
                "-q": (x - q, y - yq)}[op]
    out.append(pair)
    return pair


@settings(max_examples=150, deadline=None)
@given(chains, chains)
def test_int_coefficients_agree_with_the_fraction_oracle(chain1, chain2):
    pairs = []
    _both(chain1, pairs)
    _both(chain2, pairs)
    for x, y in pairs:
        assert_normal(x)
        assert list(cyc_terms(x).items()) == list(y.terms.items())
        assert repr(x) == repr(y)
        # the trace form, which scales to these conductors, and the dense
        # reduction where it is cheap
        r = trace_rational(y.terms)
        if 360 % x.n == 0:
            assert y.as_rational() == r
        assert x._reduced() == (None if r is None else r * x.den)
        assert x.is_zero() == (r == 0) == (not x)
        assert x.as_rational() == r
        if r is not None:
            assert hash(x) == hash(r)
            assert x == r and r == x
    for x1, y1 in pairs:
        for x2, y2 in pairs:
            equal = trace_rational((y1 - y2).terms) == 0
            assert (x1 == x2) is equal and (x1 != x2) is not equal
            if equal:
                assert hash(x1) == hash(x2)
