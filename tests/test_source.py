"""Checks on the package source itself."""

import ast
from pathlib import Path

import rookpart

PACKAGE = Path(rookpart.__file__).parent
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_no_assert_statements_in_package():
    # preconditions must be always-on checks; `assert` vanishes under -O
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
    assert len(list(PACKAGE.glob("*.py"))) > 10


def test_no_function_level_relative_imports_in_package():
    # package imports belong at the top of a module, where they are seen
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    if isinstance(inner, ast.ImportFrom) and inner.level > 0:
                        found.append(f"{path.name}:{inner.lineno}")
    assert found == []


def _names_used(node) -> set:
    """Every name a piece of code reads, imports or looks up as an attribute."""
    out = set()
    for inner in ast.walk(node):
        if isinstance(inner, ast.Name):
            out.add(inner.id)
        elif isinstance(inner, ast.Attribute):
            out.add(inner.attr)
        elif isinstance(inner, ast.alias):
            out.add(inner.name)
    return out


def test_every_public_function_and_class_is_used():
    # a public module-level def in the package must be used by other code in
    # the package (the exports of __init__.py included) or by scripts/;
    # references inside its own body do not count
    sources = sorted(PACKAGE.glob("*.py")) + sorted(SCRIPTS.glob("*.py"))
    defined = []
    users: dict = {}
    for path in sources:
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            owner = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = (path, top.name)
                if path.parent == PACKAGE and not top.name.startswith("_"):
                    defined.append(owner)
            for name in _names_used(top):
                users.setdefault(name, set()).add(owner or (path, None))
    unused = [
        f"{path.name}:{name}" for path, name in defined if not users.get(name, set()) - {(path, name)}
    ]
    assert unused == []
    assert len(defined) > 100 and len(list(SCRIPTS.glob("*.py"))) >= 3
