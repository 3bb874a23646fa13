"""Every top-level definition and public method in padharm has a user,
and no module reaches into another module's private names.

A top-level definition counts as used when an ``ast.Name``, an
``ast.Attribute`` or an import names it in src/ or in perfbench/ (its
test files aside), outside the definition's own body; a method, when an
``ast.Attribute`` does, since a bare name never reaches a method.  The
test suite is not a user: a route that only tests call belongs under
tests/.  Names are matched as names, so a method counts as used when any
attribute of that name is.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _definitions(tree):
    """(node, is_method) for each top-level definition and public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node, False
        if isinstance(node, ast.ClassDef):
            yield from ((item, True) for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_"))


def _references(tree):
    """(name, line, is_attribute) of every name, attribute and imported
    name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name, node.lineno, False


def test_every_definition_is_referenced():
    users = sorted((ROOT / "src").rglob("*.py")) + sorted(
        path for path in (ROOT / "perfbench").glob("*.py")
        if not path.name.startswith("test_"))
    places = {}
    for path in users:
        for name, line, attr in _references(ast.parse(path.read_text())):
            places.setdefault(name, []).append((path, line, attr))
    unused = []
    for path in sorted((ROOT / "src" / "padharm").glob("*.py")):
        for node, is_method in _definitions(ast.parse(path.read_text())):
            # a reference inside the definition itself, such as a
            # recursive call, does not keep it alive
            body = range(node.lineno, node.end_lineno + 1)
            if all((where == path and line in body) or (is_method and not attr)
                   for where, line, attr in places.get(node.name, ())):
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert unused == [], "\n".join(unused)


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield node.lineno, (alias.asname or alias.name).split(".")[0]


def test_every_import_is_used():
    # __init__.py imports names to re-export them
    unused = []
    for path in sorted((ROOT / "src" / "padharm").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}"
                   for line, name in _imported_names(tree) if name not in used]
    assert unused == [], "\n".join(unused)


def test_no_module_imports_a_private_name():
    # an underscore name is private to its module; a second module that
    # needs it makes it part of the public interface, so it loses the
    # underscore (dunders such as __version__ are public)
    private = []
    for path in sorted((ROOT / "src" / "padharm").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("padharm")):
                private += [f"{path.name}:{node.lineno} {alias.name}"
                            for alias in node.names
                            if alias.name.startswith("_")
                            and not alias.name.endswith("__")]
    assert private == [], "\n".join(private)


PRIVATE_FRACTION_NAMES = re.compile(
    r"\b(_normalize|_from_coprime_ints|_numerator|_denominator)\b")


def test_no_private_fraction_api():
    # Fraction's private names change between Python versions (3.12
    # dropped the _normalize argument and added _from_coprime_ints), so a
    # result built on them could depend on the version
    uses = []
    for path in sorted((ROOT / "src" / "padharm").glob("*.py")):
        for number, line in enumerate(path.read_text().splitlines(), 1):
            uses += [f"{path.name}:{number} {m.group(1)}"
                     for m in PRIVATE_FRACTION_NAMES.finditer(line)]
    assert uses == [], "\n".join(uses)
