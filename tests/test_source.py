"""Source-level guards on the library."""

import ast
import importlib.util
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


def test_sources_parse_as_python_3_10():
    # pyproject.toml and CI promise Python 3.10; grammar newer than that
    # (except*, type statements, generic syntax) must not creep in
    root = Path(__file__).resolve().parent.parent
    paths = SOURCES + sorted((root / "perfbench").glob("*.py"))
    assert len(paths) > len(SOURCES)
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


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


def test_private_helpers_have_a_caller():
    # a top-level _name function, class or constant that nothing in the
    # library names is a stranded helper
    defined, used = {}, set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = f"{path.name}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert defined
    assert sorted(f"{where} {name}" for name, where in defined.items()
                  if name not in used) == []


def test_traced_names_resolve_on_the_package():
    # perfbench/spans.py patches these names at run time; a kernel refactor
    # that drops one would otherwise fail only inside the benchmark's
    # self-test subprocess
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.FUNCTIONS and spans.METHODS
    missing = []
    for mod_name, attr in spans.FUNCTIONS:
        module = getattr(glcrystals, mod_name, None)
        if not callable(getattr(module, attr, None)):
            missing.append(f"{mod_name}.{attr}")
    for mod_name, cls_name, meth in spans.METHODS:
        cls = getattr(getattr(glcrystals, mod_name, None), cls_name, None)
        # the tracer replaces the method in the class's own namespace
        if meth not in getattr(cls, "__dict__", {}):
            missing.append(f"{mod_name}.{cls_name}.{meth}")
    assert missing == [], f"traced names missing from glcrystals: {missing}"
