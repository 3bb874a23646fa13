"""QRational computes on ints: no function of qrational.py names
`Fraction` except the few that take a rational in or hand one out
(`const` and `monomial` read their input, `evaluate` returns a value,
and `__hash__` hashes a constant as its Fraction value), no function
divides with `/`, and there is no Fraction view beside the int tuples:
no `Poly` class and no `num` or `den`.  An edit that brings Fraction
arithmetic back into an operation, the gcd, the remainders or the Sturm
chain fails here.
"""

import ast
from pathlib import Path

from padharm.qrational import QRational

SOURCE = Path(__file__).resolve().parents[1] / "src" / "padharm" / "qrational.py"

FRACTION_USERS = {
    ("QRational", "const"),
    ("QRational", "monomial"),
    ("QRational", "evaluate"),
    ("QRational", "__hash__"),
}

# the arithmetic that must stay on ints; listed so that a rename cannot
# take a kernel out of the check unnoticed
KERNELS = {
    (None, name) for name in (
        "_add", "_mul", "_neg", "_derivative", "_primitive", "_quo", "_prem",
        "_gcd", "_homogeneous", "_lowest", "sturm_root_count",
        "geometric_tail", "_coerce", "_poly_repr")
} | {
    ("QRational", name) for name in (
        "__add__", "__neg__", "__sub__", "__rsub__", "__mul__",
        "inverse", "__truediv__", "__eq__", "substitute_reciprocal",
        "pole_order_at_sqrt", "real_pole_count")
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


def _tree():
    return ast.parse(SOURCE.read_text())


def test_only_the_input_output_and_view_name_fraction():
    functions = _functions(_tree())
    assert KERNELS <= set(functions), sorted(KERNELS - set(functions))
    users = {key for key, node in functions.items()
             if any(isinstance(n, ast.Name) and n.id == "Fraction"
                    for n in ast.walk(node))}
    assert users <= FRACTION_USERS, sorted(users - FRACTION_USERS)
    assert not users & KERNELS


def test_no_true_division_and_no_fractions_module():
    tree = _tree()
    divisions = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, (ast.BinOp, ast.AugAssign))
                 and isinstance(node.op, ast.Div)]
    assert divisions == []
    imports = [(node.module, [a.name for a in node.names])
               for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))
               and "fractions" in (node.module or "",
                                   *(a.name for a in node.names))]
    assert imports == [("fractions", ["Fraction"])]


def test_no_fraction_view_beside_the_int_tuples():
    # repr and the CLI format N and D over lc(D) from the ints
    tree = _tree()
    body = tree.body + [item for node in tree.body
                        if isinstance(node, ast.ClassDef)
                        for item in node.body]
    defined = {node.name for node in body
               if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
    defined |= {t.id for node in body if isinstance(node, ast.Assign)
                for t in node.targets if isinstance(t, ast.Name)}
    assert not defined & {"Poly", "num", "den"}
    assert QRational.__slots__ == ("N", "D")
