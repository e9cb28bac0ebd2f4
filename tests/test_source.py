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
