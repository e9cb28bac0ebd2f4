"""Checks on the package source itself."""

import ast
import importlib
import re
import sys
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


def test_no_function_level_imports_in_package():
    # imports belong at the top of a module, where they are seen
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    if isinstance(inner, (ast.Import, ast.ImportFrom)):
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
    # one of its classes, must be used by other code in the package, by
    # scripts/ or by the benchmark in perfbench/; references inside its own
    # body do not count, nor do the re-exports of __init__.py, so a name that
    # only tests reach fails.  A method counts as used only when it is looked
    # up as an attribute, so a function or a variable of the same name does
    # not hide it.
    sources = sorted(PACKAGE.glob("*.py")) + sorted(SCRIPTS.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
    defined = []
    users: dict = {}
    for path in sources:
        if path == PACKAGE / "__init__.py":
            continue
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


_OPERATORS = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__"}

# the arithmetic operators each package class defines, listed by hand so that
# a new one is a deliberate addition, made together with the code that applies it
OPERATOR_TABLE = {
    "diagram.AlgebraElement": {"__add__", "__sub__"},
    "formal.FormalSum": {"__add__", "__sub__", "__neg__"},
    "linalg.ExactMatrix": {"__add__", "__sub__", "__neg__", "__mul__"},
    "scalars.XiPoly": {"__add__", "__radd__", "__sub__", "__neg__", "__mul__", "__rmul__"},
}


def test_operator_dunders_match_the_table():
    # a def or an assignment (``__radd__ = __add__``) in the class body
    defined = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(top, ast.ClassDef):
                continue
            names = {node.name for node in top.body if isinstance(node, _DEFS)}
            names |= {
                target.id
                for node in top.body
                if isinstance(node, ast.Assign)
                for target in node.targets
                if isinstance(target, ast.Name)
            }
            if names & _OPERATORS:
                defined[f"{path.stem}.{top.name}"] = names & _OPERATORS
    assert defined == OPERATOR_TABLE


def _is_static(fn):
    return any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)


def _unread_parameters(fn, skip_first):
    args = fn.args
    params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
    read = {
        node.id
        for node in ast.walk(fn)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    return [p for p in params[skip_first:] if p not in read]


def test_every_parameter_is_read():
    # every parameter of a module-level function or of a method (self and cls
    # apart) is read in its body, nested functions included; the parameters of
    # nested callbacks are not checked, since their signature is fixed by
    # whoever calls them
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(top, _DEFS):
                pieces = [(top.name, top, 0)]
            elif isinstance(top, ast.ClassDef):
                pieces = [
                    (f"{top.name}.{node.name}", node, 0 if _is_static(node) else 1)
                    for node in top.body
                    if isinstance(node, _DEFS)
                ]
            else:
                continue
            for name, fn, skip_first in pieces:
                found += [f"{path.name}:{name}({p})" for p in _unread_parameters(fn, skip_first)]
    assert found == []


def test_size_limits_and_the_environment_live_in_limits_py():
    # a new size limit joins the one table in limits.py, not a constant of
    # its own beside the code it bounds, and no module, limits.py included,
    # reads the environment: every limit is the same in every process
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
                found.append(f"{path.name}:{node.lineno} os.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found.append(f"{path.name}:{node.lineno} from os import")
        if path.name == "limits.py":
            continue
        for top in tree.body:
            targets = top.targets if isinstance(top, ast.Assign) else [getattr(top, "target", None)]
            for target in targets:
                if isinstance(target, ast.Name) and re.search("_GUARD|_CEILING|_LIMIT", target.id):
                    found.append(f"{path.name}:{top.lineno} {target.id}")
    assert found == []


_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def test_names_in_docstrings_resolve():
    # a double-backticked identifier or dotted name in a package docstring
    # names something that exists: each part a module, def, class, attribute,
    # argument, module-level name or identifier-like string constant of the
    # package, or, when it starts with a standard-library module, an object
    # found from there; so a docstring cannot outlive the code it names
    names = set()
    quoted = []
    for path in sorted(PACKAGE.glob("*.py")):
        names.add(path.stem)
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (*_DEFS, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.arg):
                names.add(node.arg)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and _IDENTIFIER.fullmatch(node.value):
                names.add(node.value)
        for top in tree.body:
            if isinstance(top, (ast.Assign, ast.AnnAssign)):
                targets = top.targets if isinstance(top, ast.Assign) else [top.target]
                names |= {t.id for t in targets if isinstance(t, ast.Name)}
        for node in [tree, *ast.walk(tree)]:
            if isinstance(node, (ast.Module, ast.ClassDef, *_DEFS)):
                for text in re.findall(r"``([^`]+)``", ast.get_docstring(node, clean=False) or ""):
                    if all(_IDENTIFIER.fullmatch(part) for part in text.split(".")):
                        quoted.append((f"{path.name}:{getattr(node, 'lineno', 1)}", text))

    def resolves(text):
        head, *rest = text.split(".")
        if head not in sys.stdlib_module_names:
            return all(part in names for part in text.split("."))
        obj = importlib.import_module(head)
        for part in rest:
            if not hasattr(obj, part):
                return False
            obj = getattr(obj, part)
        return True

    assert [f"{where} ``{text}``" for where, text in quoted if not resolves(text)] == []
    assert len(quoted) > 100


def test_diagrams_compare_by_identity_and_are_made_in_one_place():
    # the process holds one PartitionDiagram per diagram, so equality and
    # hashing are the object's own: a value __eq__ or __hash__, or a second
    # place that allocates one, would let two equal diagrams coexist
    found = []
    allocations = []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            in_class = isinstance(top, ast.ClassDef) and top.name == "PartitionDiagram"
            if in_class:
                for node in top.body:
                    names = [node.name] if isinstance(node, _DEFS) else []
                    if isinstance(node, ast.Assign):
                        names = [t.id for t in node.targets if isinstance(t, ast.Name)]
                    found += [f"{path.name}:{node.lineno} defines {n}" for n in names if n in ("__eq__", "__hash__")]
            for (_, owner), nodes in _owned_pieces(path, top):
                for node in nodes:
                    for call in ast.walk(node):
                        if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)):
                            continue
                        if call.func.attr != "__new__":
                            continue
                        named = [call.func.value, *call.args]
                        if in_class or any(isinstance(n, ast.Name) and n.id == "PartitionDiagram" for n in named):
                            allocations.append((owner, f"{path.name}:{call.lineno}"))
    found += [
        f"{where} allocates a PartitionDiagram in {owner}"
        for owner, where in allocations
        if owner != "PartitionDiagram._from_masks"
    ]
    assert found == []
    assert [owner for owner, _ in allocations] == ["PartitionDiagram._from_masks"]
