"""Count the lines of src/quadorder: the total, each module, each top-level definition.

A line counts unless it is blank or its first non-space character is
`#`, the rule of `cat src/quadorder/*.py | grep -vcE '^\\s*($|#)'`, and
the total printed first equals that command's count.  The rule is read
line by line, so a docstring line counts and a line of a string that
starts with `#` does not.

After the module counts, each module gets a table: one row per top-level
def, class or assignment, in source order, with its counted lines and
how many of them are its docstring's.  A `(module)` row takes everything
else: the module docstring, imports and any other top-level statement.
The rows of a module add up to its count.

    python tools/count_lines.py
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "quadorder"
_UNCOUNTED = re.compile(rb"\s*($|#)")
MODULE = "(module)"  # the row of everything that is no definition


def counted_lines(source: bytes) -> set[int]:
    """The 1-based numbers of the counted lines of source."""
    return {n for n, line in enumerate(source.split(b"\n"), 1) if not _UNCOUNTED.match(line)}


def _name(node: ast.stmt) -> str:
    """How a top-level statement is listed: its own row for a def, a class
    or an assignment to names, else the module-level row."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return f"def {node.name}"
    if isinstance(node, ast.ClassDef):
        return f"class {node.name}"
    targets = [node.target] if isinstance(node, ast.AnnAssign) else getattr(node, "targets", [])
    if isinstance(node, (ast.Assign, ast.AnnAssign)) and all(isinstance(t, ast.Name) for t in targets):
        return " = ".join(t.id for t in targets) + " ="
    return MODULE


def _docstring_lines(node: ast.AST) -> range:
    if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        if ast.get_docstring(node, clean=False) is not None:
            return range(node.body[0].lineno, node.body[0].end_lineno + 1)
    return range(0)


def definition_rows(source: bytes) -> list[tuple[int, int, str]]:
    """(counted lines, docstring lines among them, name) for the module
    level and then each top-level definition; the rows partition the
    module's counted lines."""
    counted = counted_lines(source)
    tree = ast.parse(source)
    owner: dict[int, str] = {}
    docstrings = set(_docstring_lines(tree))
    names = [MODULE]
    for node in tree.body:
        name = _name(node)
        if name not in names:
            names.append(name)
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        for n in range(first, node.end_lineno + 1):
            owner.setdefault(n, name)
        docstrings.update(_docstring_lines(node))
    rows = []
    for name in names:
        lines = {n for n in counted if owner.get(n, MODULE) == name}
        rows.append((len(lines), len(lines & docstrings), name))
    return rows


def main() -> int:
    paths = sorted(PACKAGE.glob("*.py"))
    sources = {path: path.read_bytes() for path in paths}
    # cat joins the files, so count them as one text, as CI does
    print(f"{len(counted_lines(b''.join(sources.values()))):6}  src/quadorder/*.py")
    for path, source in sources.items():
        print(f"{len(counted_lines(source)):6}  {path.relative_to(ROOT)}")
    for path, source in sources.items():
        print(f"\n{path.relative_to(ROOT)}\n lines   doc  definition")
        for lines, doc, name in definition_rows(source):
            print(f"{lines:6}{doc:6}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
