"""Source hygiene: no module of the package imports a name it never uses,
and no function outside a class takes a parameter it never reads."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "renyibounds"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    """(line, name) of every imported name the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def unused_parameters(source: str):
    """(line, function, parameter) of every parameter of a module-level or
    nested function that its body never reads. Methods are exempt: they
    implement interfaces shared with other classes."""
    tree = ast.parse(source)
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or id(node) in methods:
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                  if p is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        found += [(node.lineno, node.name, p) for p in params if p not in read]
    return found


def test_detector_flags_an_unused_import():
    src = "import os\nfrom typing import List, Tuple\nx: Tuple[int] = (os.sep,)\n"
    assert unused_imports(src) == [(2, "List")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_flags_an_unused_parameter():
    src = ("def f(a, b, *, c=1):\n"
           "    def g(d):\n"
           "        return a\n"
           "    return g\n"
           "class K:\n"
           "    def draw(self, rng):\n"
           "        return 0\n")
    assert unused_parameters(src) == [(1, "f", "b"), (1, "f", "c"), (2, "g", "d")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_parameters(path):
    assert unused_parameters(path.read_text()) == []
