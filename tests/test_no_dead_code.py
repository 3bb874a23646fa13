"""Every top-level definition and public method in padharm has a user,
and no module reaches into another module's private names.

A name counts as used when it appears as a whole word somewhere in src/,
tests/ or perfbench/ other than on its own ``def``/``class`` line.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORD = re.compile(r"\w+")


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (item for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_"))


def test_every_definition_is_referenced():
    files = [p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")]
    words = Counter(w for p in files for w in WORD.findall(p.read_text()))
    unused = []
    for path in sorted((ROOT / "src" / "padharm").glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        for node in _definitions(ast.parse(text)):
            own = WORD.findall(lines[node.lineno - 1]).count(node.name)
            if words[node.name] <= own:
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
