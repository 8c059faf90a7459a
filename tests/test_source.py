"""Source-level guards on the library."""

import ast
from pathlib import Path

import glcrystals

SOURCES = sorted(Path(glcrystals.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statements():
    # `assert` vanishes under python -O; library checks must raise
    # explicitly (ValueError, or AssertionError for cross-checks)
    assert SOURCES
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
