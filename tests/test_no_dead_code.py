"""Every top-level definition and public method in padharm has a user,
every defaulted parameter has a caller that sets it, and no module
reaches into another module's private names.

A top-level definition counts as used when an ``ast.Name``, an
``ast.Attribute`` or an import names it in src/ or in perfbench/ (its
test files aside), outside the definition's own body; a method, when an
``ast.Attribute`` does, since a bare name never reaches a method.  The
test suite is not a user: a route that only tests call belongs under
tests/.

Names are matched as names, not resolved to the class that defines
them, so a method counts as used when any attribute of that name is, and
a parameter counts as passed when any call of that name passes it.  That
is a gap: a method that nothing outside tests calls still passes while
another class has a used method of the same name.  ``WavePacket.zero``,
which nothing called, passed on the calls of ``CyclotomicScalar.zero``.
Underscore names and dunders are not checked here at all.

A CI step closes the gap by execution: ``tests/reach.py`` runs the pinned
inputs (the suites, the README commands and perfbench cycles) and prints
every def of src/padharm, methods and dunders included, that none of
them entered.  The output must equal the names of
``.github/unreached.txt``, which gives each a reason to stay; the last
test here checks that list without running the scan.
"""

import ast
import re
from pathlib import Path

from reach import package_defs

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


def _user_paths():
    return sorted((ROOT / "src").rglob("*.py")) + sorted(
        path for path in (ROOT / "perfbench").glob("*.py")
        if not path.name.startswith("test_"))


def test_every_definition_is_referenced():
    places = {}
    for path in _user_paths():
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


def _callee(func, aliases):
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return aliases.get(name, name)


def _calls_and_values(tree):
    """(calls, values): every call as (callee, line, positional count,
    keyword names), and every (name, line) that is read as a value rather
    than called.  The count is None when a *args may fill any position,
    and ** among the keyword names may fill any keyword."""
    aliases = {alias.asname: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) for alias in node.names
               if alias.asname}
    calls, values, skip = [], [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            skip.add(id(node.func))
            if _callee(node.func, {}) in ("isinstance", "issubclass"):
                skip.update(id(arg) for arg in node.args[1:])
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            calls.append((_callee(node.func, aliases), node.lineno,
                          None if starred else len(node.args),
                          {kw.arg or "**" for kw in node.keywords}))
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            skip.add(id(node.type))
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in skip
                and isinstance(node.ctx, ast.Load)):
            values.append((_callee(node, aliases), node.lineno))
    return calls, values


def _defaulted_parameters(tree):
    """(node, callee, [(name, position or None)]) for each top-level
    function, method and constructor, listing its defaulted parameters; a
    constructor's callee is its class.  position counts the arguments a
    call passes, so self and cls do not count; keyword-only is None."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node, node.name, _defaulted(node.args, 0)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in item.decorator_list)
                callee = node.name if item.name == "__init__" else item.name
                yield item, callee, _defaulted(item.args, 0 if static else 1)


def _defaulted(args, skip):
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(arg.arg, i - skip) for i, arg in enumerate(positional)
           if i >= first]
    out += [(arg.arg, None) for arg, default
            in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
    return out


def test_every_defaulted_parameter_is_passed():
    # a default that no call overrides is a constant, and the branches it
    # guards are reached only by tests.  A definition that is also read
    # as a value (a table entry, a callback) may be called with anything,
    # so it is exempt; nested functions are not checked, since their
    # defaults bind loop variables.  Calls are matched by name, as above.
    calls, values = [], set()
    for path in _user_paths():
        file_calls, file_values = _calls_and_values(ast.parse(path.read_text()))
        calls += [(path, *call) for call in file_calls]
        values.update((name, path, line) for name, line in file_values)
    unset = []
    for path in sorted((ROOT / "src" / "padharm").glob("*.py")):
        for node, callee, params in _defaulted_parameters(
                ast.parse(path.read_text())):
            body = range(node.lineno, node.end_lineno + 1)
            outside = [c for c in calls
                       if c[1] == callee and not (c[0] == path and c[2] in body)]
            if any(name == callee and not (where == path and line in body)
                   for name, where, line in values):
                continue
            for name, position in params:
                if not any(name in kws or "**" in kws
                           or (position is not None
                               and (n is None or position < n))
                           for _, _, _, n, kws in outside):
                    unset.append(f"{path.name}:{node.lineno} "
                                 f"{callee}({name})")
    assert unset == [], "\n".join(unset)


def test_every_unreached_entry_is_a_def_with_a_reason():
    # the list CI diffs against tests/reach.py: one def per line, sorted
    # as the script prints them, each followed by why it stays
    defs = set(package_defs().values())
    lines = [line for line in (ROOT / ".github" / "unreached.txt")
             .read_text().splitlines() if not line.startswith("#")]
    names = [line.partition(" ")[0] for line in lines]
    assert names == sorted(set(names))
    bad = [line for line in lines
           if line.partition(" ")[0] not in defs
           or not line.partition(" ")[2].strip()]
    assert bad == [], "\n".join(bad)
