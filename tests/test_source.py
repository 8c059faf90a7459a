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


def test_library_imports_are_used():
    # a name imported into a module and never referenced there is dead;
    # __init__.py imports only to re-export
    found = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}"
                  for name, line in sorted(imported.items()) if name not in used]
    assert found == []
