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
