"""One work budget: no function in padharm takes a `budget` parameter, and
ScaleExceeded is raised only by `config.charge` (the coset limit of the
run), by the print bound of the CLI and by the packet-size caps of
`spaces`.  A threaded budget or a second inline comparison against the
coset limit fails here.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "padharm"

RAISERS = {
    ("config.py", "charge"),
    ("cli.py", "frac_str"),
    ("cli.py", "cmd_dagger_gen"),
    ("cli.py", "cmd_fourier"),
    ("spaces.py", "_merged"),
    ("spaces.py", "refined"),
    ("spaces.py", "riemann_fourier"),
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _trees():
    for path in sorted(SRC.glob("*.py")):
        yield path.name, ast.parse(path.read_text())


def _raises(node, where):
    """(file, innermost enclosing function) of each raise of
    ScaleExceeded under `node`."""
    for child in ast.iter_child_nodes(node):
        inner = where
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = (where[0], child.name)
        if isinstance(child, ast.Raise) and child.exc is not None:
            exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            if isinstance(exc, ast.Name) and exc.id == "ScaleExceeded":
                yield where
        yield from _raises(child, inner)


def test_no_function_takes_a_budget():
    found = []
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, FUNCTIONS):
                args = node.args
                found += [f"{name}:{node.lineno} {arg.arg}"
                          for arg in args.posonlyargs + args.args
                          + args.kwonlyargs if arg.arg == "budget"]
    assert found == [], "\n".join(found)


def test_scale_exceeded_is_raised_only_by_the_known_bounds():
    places = set()
    for name, tree in _trees():
        places.update(_raises(tree, (name, None)))
    assert ("config.py", "charge") in places
    assert places <= RAISERS, sorted(places - RAISERS)
