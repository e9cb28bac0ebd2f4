"""Checks on the package source itself."""

import ast
from pathlib import Path

import rookpart

PACKAGE = Path(rookpart.__file__).parent


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
