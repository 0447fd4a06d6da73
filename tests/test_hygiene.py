"""Source hygiene: every name a module imports, assigns or defines privately at its top level is used."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "sparselab"
# __init__.py imports names only to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.asname or a.name for a in node.names)
    return names


def unused_imports(source):
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(_imported_names(tree) - used)


def _assigned_names(tree):
    """Names a module binds by a top-level assignment, dunders aside."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        names.update(t.id for t in targets if isinstance(t, ast.Name) and not t.id.startswith("__"))
    return names


def _referenced_names(sources):
    """Every name some source reads, as a bare name, an attribute or a `from` import."""
    refs = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                refs.update(a.name for a in node.names)
    return refs


def unreferenced_constants(source, package_sources):
    """Names source assigns at its top level that no package source reads."""
    return sorted(_assigned_names(ast.parse(source)) - _referenced_names(package_sources))


def unreferenced_private_definitions(source, package_sources):
    """Functions and classes source defines at its top level under a _name that no package source reads."""
    defined = {
        node.name
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    }
    return sorted(defined - _referenced_names(package_sources))


def test_modules_found():
    assert {p.name for p in MODULES} >= {"cli.py", "experiment.py", "guarantees.py", "pursuit.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    assert unused_imports("import numpy as np\nfrom .linalg import a, b\nprint(b)\n") == ["a", "np"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unreferenced_module_constants(path):
    # __init__.py counts as a reader: a name it re-exports is referenced
    package_sources = [module.read_text() for module in PACKAGE.glob("*.py")]
    assert unreferenced_constants(path.read_text(), package_sources) == []


def test_detects_an_unreferenced_constant():
    a = "TOL = 1e-8\nUSED = 2\n_TABLE: dict = {}\n__all__ = []\n"
    b = "from .a import USED\nimport a\nprint(a._TABLE)\n"
    assert unreferenced_constants(a, [a, b]) == ["TOL"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unreferenced_private_definitions(path):
    package_sources = [module.read_text() for module in PACKAGE.glob("*.py")]
    assert unreferenced_private_definitions(path.read_text(), package_sources) == []


def test_detects_an_unreferenced_private_definition():
    a = (
        "def _dead():\n    pass\n"
        "def _used():\n    pass\n"
        "class _Gone:\n    pass\n"
        "def __getattr__(name):\n    pass\n"
        "def public():\n    pass\n"
    )
    b = "from .a import _used\n"
    assert unreferenced_private_definitions(a, [a, b]) == ["_Gone", "_dead"]


# linalg's types, whose private classmethods build instances without the public constructor's checks
LINALG_TYPES = {"Dictionary", "SparseSignal", "SupportSet"}
# outside linalg.py, the functions that may call those constructors: each passes values it derived itself
UNCHECKED_CALLERS = {"pursuit.py": {"_prune", "_pursue", "oracle_estimator"}}


def unchecked_constructors(linalg_source):
    """The private classmethods that linalg's types define."""
    return {
        item.name
        for node in ast.parse(linalg_source).body
        if isinstance(node, ast.ClassDef) and node.name in LINALG_TYPES
        for item in node.body
        if isinstance(item, ast.FunctionDef)
        and item.name.startswith("_")
        and not item.name.startswith("__")
        and any(isinstance(d, ast.Name) and d.id == "classmethod" for d in item.decorator_list)
    }


def unchecked_calls(source, constructors):
    """(top-level definition, callee) for each call in source to one of `constructors` or to object.__new__ of a linalg type."""
    calls = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            func, args = node.func, node.args
            if func.attr in constructors:
                calls.append((getattr(top, "name", None), func.attr))
            elif (
                func.attr == "__new__"
                and isinstance(func.value, ast.Name)
                and func.value.id == "object"
                and args
                and isinstance(args[0], ast.Name)
                and args[0].id in LINALG_TYPES
            ):
                calls.append((getattr(top, "name", None), "object.__new__"))
    return calls


def test_unchecked_constructors_stay_private():
    # no reader of outside input (read_trace, import_dictionary_csv, config parsing) may build an unchecked value
    constructors = unchecked_constructors((PACKAGE / "linalg.py").read_text())
    assert constructors == {"_estimate", "_from_atoms", "_from_sorted"}
    callers = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "linalg.py":
            continue
        calls = unchecked_calls(path.read_text(), constructors)
        assert "object.__new__" not in {callee for _, callee in calls}, path.name
        if calls:
            callers[path.name] = {caller for caller, _ in calls}
    assert callers == UNCHECKED_CALLERS


def test_detects_unchecked_construction():
    source = (
        "def read(v):\n    return SupportSet._from_sorted(v)\n"
        "def _prune(m, keep):\n    return SupportSet._from_sorted(m[keep]), keep\n"
        "def forge():\n    return object.__new__(SparseSignal)\n"
        "def fine():\n    return object.__new__(Other), SupportSet(())\n"
        "X = Dictionary._from_atoms(a)\n"
    )
    assert unchecked_calls(source, {"_from_sorted", "_from_atoms"}) == [
        ("read", "_from_sorted"),
        ("_prune", "_from_sorted"),
        ("forge", "object.__new__"),
        (None, "_from_atoms"),
    ]
    linalg = (
        "class SupportSet:\n"
        "    @classmethod\n    def _from_sorted(cls, idx):\n        pass\n"
        "    @classmethod\n    def of(cls, idx):\n        pass\n"
        "    def _adopt(self, idx):\n        pass\n"
        "class Other:\n    @classmethod\n    def _make(cls):\n        pass\n"
    )
    assert unchecked_constructors(linalg) == {"_from_sorted"}
