"""Every top-level definition and public method in padharm has a user.

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
