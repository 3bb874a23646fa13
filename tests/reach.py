"""Reachability by execution: the functions of src/padharm that no pinned
input enters.

    python tests/reach.py

The pinned inputs are the ones whose output CI pins byte for byte:

- the eleven verification suites at their defaults;
- the sh block of the README's command-line section;
- three seed-1 cycles of each perfbench workload.

A profile function, installed before padharm is imported (`cli` reads
the suite flags at import), records every Python function entered.  The
script prints, one per line and sorted, the qualified name of each `def`
of src/padharm that none of those runs entered, such as
`orbital.OrbitalResult.scale` or `characters._dlog_table_Fp2.mul`.
`.github/unreached.txt` lists each name that stays, with its reason, and
CI diffs the two.

Names and first lines are read from the source with `ast`, not from
code objects: `co_qualname` is new in Python 3.11, and 3.12 inlines
comprehensions into their function.  A `def` is matched to its code
object by file, first line and name; a decorated `def` starts at its
first decorator, as its code object does.  Lambdas, comprehensions and
class bodies are not `def`s and are not reported.

The script uses the standard library only and is not collected by
pytest.
"""

import ast
import contextlib
import io
import os
import shlex
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "padharm"


def defs(path):
    """{(first line, name): qualified name} of every `def` in a module;
    the qualified name starts with the module's name."""
    out = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in
                                              child.decorator_list])
                out[first, child.name] = f"{prefix}.{child.name}"
                visit(child, f"{prefix}.{child.name}")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), path.stem)
    return out


def package_defs():
    """{(file, first line, name): qualified name} over src/padharm."""
    return {(str(path), *key): name
            for path in sorted(PACKAGE.glob("*.py"))
            for key, name in defs(path).items()}


def readme_commands():
    """(argv, stdin text) of each command in the README's command-line
    sh block, read as CI's digest step reads it."""
    lines, inside = [], None
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("## Command-line interface"):
            inside = False
        elif inside is False and line.startswith("```sh"):
            inside = True
        elif inside and line.startswith("```"):
            break
        elif inside:
            lines.append(line)
    commands, pending = [], ""
    for line in lines:
        pending += line + "\n"
        if pending.endswith("\\\n"):
            pending = pending[:-2] + " "
            continue
        try:
            words = shlex.split(pending, comments=True)
        except ValueError:  # a quote spans the line break
            continue
        command, pending = pending, ""
        if not words:
            continue
        stdin = ""
        if words[0] == "echo" and words[2:3] == ["|"]:
            stdin, words = words[1] + "\n", words[3:]
        if words[0] != "padharm":
            raise ValueError(f"not a padharm command: {command!r}")
        commands.append((words[1:], stdin))
    if pending.strip():
        raise ValueError(f"unterminated command: {pending!r}")
    return commands


def run_pinned_inputs():
    from padharm.cli import main
    from padharm.errors import ScaleExceeded
    from padharm.suites import SUITES

    def cli(argv, stdin=""):
        saved = sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
        finally:
            sys.stdin = saved
        if code != 0:
            raise SystemExit(f"padharm {' '.join(argv)}: exit {code}")

    for name in SUITES:
        cli(["verify-suite", name])
    for argv, stdin in readme_commands():
        cli(argv, stdin)

    sys.path.insert(0, str(ROOT / "perfbench"))
    from layers import Tracer
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        for name in ("rank2-cells", "packet-calculus", "charts-transfer",
                     "cli-queries"):
            wl = workloads.make(name, os.path.join(tmp, name))
            ctx = wl.setup()
            rng = workloads.item_rng(1, name)
            for index in range(3):
                for item in wl.cycle(ctx, rng, index):
                    try:
                        wl.run(ctx, item, Tracer())
                        ending = "exact"
                    except ScaleExceeded:
                        ending = "refused"
                    if ending != item.expect:
                        raise SystemExit(f"{name} {item.kind}: ended "
                                         f"{ending}, expected {item.expect}")


def main():
    entered = set()
    prefix = str(PACKAGE) + os.sep

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(prefix):
                entered.add((code.co_filename, code.co_firstlineno,
                             code.co_name))

    sys.path.insert(0, str(ROOT / "src"))
    sys.setprofile(profile)
    try:
        run_pinned_inputs()
    finally:
        sys.setprofile(None)
    for key, name in sorted(package_defs().items(), key=lambda kv: kv[1]):
        if key not in entered:
            print(name)


if __name__ == "__main__":
    main()
