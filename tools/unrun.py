"""List the statements of src/quadorder that the tier-1 suite never runs.

Runs the suite in this process under sys.settrace, recording the line
events of frames whose code lives in src/quadorder, then walks each
module's AST and prints every statement that produced no line event, as
path:line and the statement's first source line.  Exits 1 if any
statement never ran, or with pytest's own status if the suite fails.

Statements that compile to no line event are skipped: `nonlocal`,
`global`, a bare annotation, and a function's docstring.  So is the body
of the `if __name__ == "__main__":` guard, which never runs in process.

    python tools/unrun.py [pytest arguments]

With no arguments it runs the tier-1 suite under `tests/`.  Tracing makes
the suite about three times slower.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "quadorder"


def _is_main_guard(node: ast.AST) -> bool:
    return isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (
        isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef))
        and parent.body[0] is node
        and ast.get_docstring(parent, clean=False) is not None
    )


def _header_lines(node: ast.stmt) -> range:
    """The lines whose event shows that the statement ran: all of a simple
    statement, and a compound one's decorators and header up to its body."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return range(first, max(node.lineno, body[0].lineno - 1) + 1)
    return range(first, node.end_lineno + 1)


def _skipped(node: ast.AST, parent: ast.AST) -> bool:
    return (
        not isinstance(node, ast.stmt)
        or isinstance(node, (ast.Nonlocal, ast.Global))
        or isinstance(node, ast.AnnAssign) and node.value is None
        or _is_docstring(node, parent)
    )


def statements(node: ast.AST):
    """Yield (statement, lines) for each statement under node that should run."""
    for field in ("body", "orelse", "finalbody", "handlers", "cases"):
        if field == "body" and _is_main_guard(node):
            continue
        for child in getattr(node, field, None) or []:
            if not _skipped(child, node):
                yield child, _header_lines(child)
            yield from statements(child)


def main(argv: list[str]) -> int:
    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set())
        return local

    sys.path.insert(0, str(PACKAGE.parent))
    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(argv or ["-q", "--continue-on-collection-errors", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    import quadorder

    if Path(quadorder.__file__).resolve().parent != PACKAGE:
        print(f"unrun: quadorder was imported from {quadorder.__file__}, not {PACKAGE}")
        return 2
    if status != 0:
        print(f"unrun: the suite failed (pytest status {int(status)}), so no report")
        return int(status)
    unrun = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        events = ran.get(str(path), set())
        for node, span in statements(ast.parse(source)):
            if events.isdisjoint(span):
                unrun.append((path, node.lineno, lines[node.lineno - 1].strip()))
    for path, lineno, text in sorted(unrun):
        print(f"{path.relative_to(ROOT)}:{lineno}: {text}")
    print(f"unrun: {len(unrun)} statement(s) of src/quadorder never ran")
    return 1 if unrun else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
