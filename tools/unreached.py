"""List the statements of almc that a Python module never runs.

Usage, from the root of the repository:

    PYTHONPATH=src python tools/unreached.py -m pytest -q

``-m MODULE [ARGS...]`` is run as ``python -m MODULE ARGS...`` would run
it, in this process, under a `sys.settrace` line tracer that records the
lines of the files under ``src/almc``.  A statement is reached when a line
from its first (decorators included) to its last is traced.  Docstrings,
``global`` and ``nonlocal`` declarations and the body of ``if
TYPE_CHECKING:`` are not counted, as they run no code.  Code run in a
subprocess is not seen.  The report goes to stderr: one line per unreached
statement, ``file:line``, then a count per file and a total.  Under the
tracer the tier-1 tests take several times as long as without.

Standard library only.
"""

import ast
import runpy
import sys
from collections import Counter
from pathlib import Path

PACKAGE = Path("src/almc")


def statements(path: Path) -> list[tuple[int, int]]:
    """The (first, last) line spans of the counted statements of a file."""
    spans = []

    def visit(body, skip=False):
        for node in body:
            if isinstance(node, (ast.Global, ast.Nonlocal)) or (
                    isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)):
                continue
            if not skip:
                first = min([node.lineno] + [d.lineno for d in getattr(
                    node, "decorator_list", ())])
                spans.append((first, node.end_lineno))
            type_checking = isinstance(node, ast.If) and \
                ast.unparse(node.test) in ("TYPE_CHECKING",
                                           "typing.TYPE_CHECKING")
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(node, field, ()),
                      skip or (type_checking and field == "body"))
            for handler in getattr(node, "handlers", ()):
                visit(handler.body, skip)

    visit(ast.parse(path.read_text(encoding="utf-8")).body)
    return spans


def main(argv: list[str]) -> int:
    if argv[:1] != ["-m"] or len(argv) < 2:
        print("usage: unreached.py -m MODULE [ARGS...]", file=sys.stderr)
        return 2
    module = argv[1]
    sys.argv = [module, *argv[2:]]

    files = {str(p): p for p in sorted(PACKAGE.resolve().rglob("*.py"))}
    seen: dict[str, set[int]] = {name: set() for name in files}

    def trace(frame, event, arg):
        lines = seen.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        lines.add(frame.f_lineno)
        return local

    sys.settrace(trace)
    try:
        runpy.run_module(module, run_name="__main__", alter_sys=True)
        status = 0
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.settrace(None)

    root = Path.cwd()
    total = 0
    missed: Counter = Counter()
    for name, path in files.items():
        lines = seen[name]
        rel = path.relative_to(root) if path.is_relative_to(root) else path
        for first, last in statements(path):
            total += 1
            if lines.isdisjoint(range(first, last + 1)):
                missed[rel] += 1
                print(f"{rel}:{first}", file=sys.stderr)
    for rel, n in sorted(missed.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"{n:5d} {rel}", file=sys.stderr)
    print(f"{sum(missed.values())} of {total} statements never ran "
          f"(program exit status {status})", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
