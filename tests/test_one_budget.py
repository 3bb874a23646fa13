"""One work budget: no function in padharm takes a `budget` parameter, nor
a `slack` that would raise a level derived from the packet rows, and
ScaleExceeded is raised only by `config.charge` (the coset limit of the
run) and by the print bound of the CLI.  `charge` is called by the
rank-1 shell integral, the rank-2 cell enumeration, the suite driver and
the loops that build packet rows (the public packet constructor, the
product, the tensor, the dagger matrix packet, refinement and the
Riemann-sum oracle) alone, and `WavePacket.level` is read only by the
first two.  A threaded budget, a level knob, a second inline comparison
against a limit, or a caller that charges or reads a level elsewhere
fails here.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "padharm"

RAISERS = {
    ("config.py", "charge"),
    ("cli.py", "ratio_str"),
    ("cli.py", "cmd_dagger_gen"),
    ("cli.py", "cmd_fourier"),
}

CHARGERS = {
    ("spaces.py", "shell_integrals"),
    ("orbital.py", "orbital_rs"),
    ("suites.py", "run_suite"),
    ("spaces.py", "__init__"),
    ("spaces.py", "__mul__"),
    ("spaces.py", "tensor"),
    ("spaces.py", "refined"),
    ("spaces.py", "riemann_fourier"),
    ("dagger.py", "matrix_packet"),
}

LEVEL_READERS = {
    ("spaces.py", "shell_integrals"),
    ("orbital.py", "orbital_rs"),
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _trees():
    for path in sorted(SRC.glob("*.py")):
        yield path.name, ast.parse(path.read_text())


def _places(hit):
    """(file, innermost enclosing function) of each node of padharm for
    which hit(node) holds."""
    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = (where[0], child.name)
            if hit(child):
                yield where
            yield from walk(child, inner)

    return {place for name, tree in _trees()
            for place in walk(tree, (name, None))}


def _raises_scale_exceeded(node):
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "ScaleExceeded"


def _calls(name):
    """A test for a call of a function or method called `name`."""
    def hit(node):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        return getattr(func, "id", getattr(func, "attr", None)) == name

    return hit


def test_no_function_takes_a_budget():
    found = []
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, FUNCTIONS):
                args = node.args
                found += [f"{name}:{node.lineno} {arg.arg}"
                          for arg in args.posonlyargs + args.args
                          + args.kwonlyargs
                          if arg.arg in ("budget", "slack")]
    assert found == [], "\n".join(found)


def test_scale_exceeded_is_raised_only_by_the_known_bounds():
    places = _places(_raises_scale_exceeded)
    assert ("config.py", "charge") in places
    assert places <= RAISERS, sorted(places - RAISERS)


def test_charge_and_level_have_known_callers():
    charges = _places(_calls("charge"))
    assert charges == CHARGERS, sorted(charges ^ CHARGERS)
    levels = _places(_calls("level"))
    assert levels == LEVEL_READERS, sorted(levels ^ LEVEL_READERS)
