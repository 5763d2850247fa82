"""List the statements of ``src/busweaver`` that the test suite never runs.

Usage, from the repository root::

    python tests/linetrace.py [pytest arguments]

It runs pytest in this process (with no arguments, the configured
``testpaths``) under :func:`sys.settrace`, recording line events only in
frames whose code lives in ``src/busweaver``, and prints, per module,
the statement lines that never ran and their count, then the total.
The exit status is pytest's, or 1 when a run with no pytest arguments
passes but some statement never ran: the whole suite should run every
statement, and a subset of it has no such target.
Statements are those of the module's syntax tree.  Docstrings and other
bare string expressions do not count, and neither do ``def``, ``class``
and ``import`` statements, which run when the module is imported.  A
compound statement (``if``, ``try``, ``with``, ...) ran when one of its
header lines or one of the statements in its body did.

Only this process is traced: tests that run the program in a subprocess
or a worker pool add nothing.  Tracing makes the suite several times
slower.  The standard library is all it needs; pytest does not collect
this file.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "busweaver"


_UNCOUNTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
              ast.Import, ast.ImportFrom)


def _counted(node: ast.AST) -> bool:
    if isinstance(node, ast.Expr):  # a docstring or bare string
        return not (isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str))
    return isinstance(node, ast.stmt) and not isinstance(node, _UNCOUNTED)


def _bodies(node: ast.stmt) -> list[list[ast.stmt]]:
    """The statement lists nested in ``node``."""
    out = []
    for field in ("body", "orelse", "finalbody"):
        out.append(getattr(node, field, []))
    out.extend(h.body for h in getattr(node, "handlers", []))
    out.extend(c.body for c in getattr(node, "cases", []))
    return [body for body in out if body]


def _header(node: ast.stmt) -> range:
    """The lines of ``node`` that hold no nested statement: all of a
    simple statement, and a compound one's decorators and header."""
    start = min([node.lineno]
                + [d.lineno for d in getattr(node, "decorator_list", [])])
    bodies = _bodies(node)
    end = (min(body[0].lineno for body in bodies) - 1 if bodies
           else node.end_lineno)
    return range(start, max(end, node.lineno) + 1)


def unrun_statements(path: Path, ran: set[int]) -> list[int]:
    """First lines of the statements of ``path`` that did not run,
    given the lines ``ran`` that produced a line event."""
    missed: list[int] = []

    def visit(body: list[ast.stmt]) -> bool:
        any_ran = False
        for node in body:
            inner = [visit(b) for b in _bodies(node)]
            hit = any(inner) or not ran.isdisjoint(_header(node))
            if not hit and _counted(node):
                missed.append(node.lineno)
            any_ran |= hit
        return any_ran

    visit(ast.parse(path.read_text()).body)
    return sorted(missed)


def statement_count(path: Path) -> int:
    return sum(map(_counted, ast.walk(ast.parse(path.read_text()))))


def main(argv: list[str]) -> int:
    import pytest

    prefix = str(PACKAGE) + "/"
    lines: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            lines[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        lines.setdefault(name, set())
        return local

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = missed_total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missed = unrun_statements(path, lines.get(str(path), set()))
        count = statement_count(path)
        total += count
        missed_total += len(missed)
        if missed:
            print(f"{path.relative_to(ROOT)}: {len(missed)} of {count}"
                  f" never ran: {', '.join(map(str, missed))}")
    print(f"total: {missed_total} of {total} statements never ran")
    if status == 0 and not argv and missed_total:
        return 1
    return int(status)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
