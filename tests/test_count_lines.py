"""tools/count_lines.py counts by CI's line rule, and its rows add up."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("count_lines", ROOT / "tools" / "count_lines.py")
count_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count_lines)

SOURCE = b'''"""Module docstring.

# a docstring line that starts with # is not counted
"""
import os

   \t
@decorator
def f(x):
    """One line."""
    # a comment
    return x

A = B = 1
if os:
    pass
'''


def test_a_line_counts_unless_blank_or_a_comment():
    assert count_lines.counted_lines(SOURCE) == {1, 4, 5, 8, 9, 10, 12, 14, 15, 16}


def test_rows_give_module_level_then_each_definition_with_its_docstring():
    assert count_lines.definition_rows(SOURCE) == [
        (5, 2, "(module)"),
        (4, 1, "def f"),
        (1, 0, "A = B ="),
    ]


def test_rows_partition_each_module_and_modules_the_total():
    sources = [path.read_bytes() for path in sorted(count_lines.PACKAGE.glob("*.py"))]
    modules = [len(count_lines.counted_lines(source)) for source in sources]
    for source, total in zip(sources, modules):
        assert sum(lines for lines, _, _ in count_lines.definition_rows(source)) == total
    assert sum(modules) == len(count_lines.counted_lines(b"".join(sources)))
