"""Checks on the package source itself."""

import ast
from pathlib import Path

import rookpart

PACKAGE = Path(rookpart.__file__).parent
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
    """Every name a piece of code reads, imports or looks up as an attribute,
    as ("name", id) or ("attribute", id)."""
    out = set()
    for inner in ast.walk(node):
        if isinstance(inner, ast.Name):
            out.add(("name", inner.id))
        elif isinstance(inner, ast.Attribute):
            out.add(("attribute", inner.attr))
        elif isinstance(inner, ast.alias):
            out.add(("name", inner.name))
    return out


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _owned_pieces(path, top):
    """(owner, nodes) pieces of a module-level statement: a def or a class owns
    its own body, and each method of a class owns its body apart from the class."""
    if isinstance(top, _DEFS):
        yield (path, top.name), [top]
    elif isinstance(top, ast.ClassDef):
        methods = [node for node in top.body if isinstance(node, _DEFS)]
        rest = [node for node in top.body if not isinstance(node, _DEFS)]
        yield (path, top.name), rest + top.bases + top.keywords + top.decorator_list
        for method in methods:
            yield (path, f"{top.name}.{method.name}"), [method]
    else:
        yield (path, None), [top]


def test_every_public_function_and_class_is_used():
    # a public module-level def or class in the package, or a public method of
    # one of its classes, must be used by other code in the package (the
    # exports of __init__.py included), by scripts/ or by the benchmark in
    # perfbench/; references inside its own body do not count.  A method
    # counts as used only when it is looked up as an attribute, so a function
    # or a variable of the same name does not hide it.
    sources = sorted(PACKAGE.glob("*.py")) + sorted(SCRIPTS.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
    defined = []
    users: dict = {}
    for path in sources:
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            if path.parent == PACKAGE and isinstance(top, (*_DEFS, ast.ClassDef)):
                if not top.name.startswith("_"):
                    defined.append((path, top.name, {"name", "attribute"}, top.name))
                if isinstance(top, ast.ClassDef):
                    defined += [
                        (path, node.name, {"attribute"}, f"{top.name}.{node.name}")
                        for node in top.body
                        if isinstance(node, _DEFS) and not node.name.startswith("_")
                    ]
            for owner, nodes in _owned_pieces(path, top):
                for node in nodes:
                    for use in _names_used(node):
                        users.setdefault(use, set()).add(owner)
    unused = [
        f"{path.name}:{qualname}"
        for path, name, kinds, qualname in defined
        if not set().union(*(users.get((kind, name), set()) for kind in kinds)) - {(path, qualname)}
    ]
    assert unused == []
    assert len(defined) > 150 and len(list(SCRIPTS.glob("*.py"))) >= 3
