"""Source hygiene: no module of the package imports a name it never uses,
no function outside a class takes a parameter it never reads, every
module-level function has a caller in the package or is one of the paper's
formulas, no module imports scipy when it is itself imported, and the tests
run against the package in this checkout's src/."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "renyibounds"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# Formulas of the paper that a user calls and no command needs: the Renyi
# divergence of finite distributions, the Jackson-network composition of
# divergence rates, the phase-type envelope bound, the exact exponential
# renewal rate and the balanced hazard envelope.
PAPER_FORMULAS = {"renyi_divergence", "jackson_compose", "phase_type_envelope_bound",
                  "exponential_exact_rdr", "balanced_envelope"}


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


def import_time_scipy_imports(source: str):
    """(line, module) of every scipy import outside a function body: each
    runs when the module is imported, not when its one user is first called."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(child, ast.Import):
                found.extend((child.lineno, a.name) for a in child.names
                             if a.name.split(".")[0] == "scipy")
            elif (isinstance(child, ast.ImportFrom)
                  and (child.module or "").split(".")[0] == "scipy"):
                found.append((child.lineno, child.module))
            visit(child)

    visit(ast.parse(source))
    return found


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


def uncalled_functions(sources):
    """(module, function) of every module-level function that no name or
    attribute of the package refers to outside the function's own body.
    sources maps module file names to their text; __init__.py only
    re-exports, so its functions are not checked and its imports are no
    callers."""
    defs, refs = [], set()
    for module, source in sources.items():
        for top in ast.parse(source).body:
            owner = (module, top.name) if isinstance(top, ast.FunctionDef) else None
            if owner and module != "__init__.py":
                defs.append(owner)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    refs.add((node.id, owner))
                elif isinstance(node, ast.Attribute):
                    refs.add((node.attr, owner))
    return sorted((module, name) for module, name in defs
                  if not any(ref == name and owner != (module, name) for ref, owner in refs))


def test_detector_flags_an_unused_import():
    src = "import os\nfrom typing import List, Tuple\nx: Tuple[int] = (os.sep,)\n"
    assert unused_imports(src) == [(2, "List")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_flags_an_import_time_scipy_import():
    src = ("import scipy.special as sp\n"
           "if True:\n"
           "    from scipy import stats\n"
           "class K:\n"
           "    from scipy.optimize import brentq\n"
           "def f():\n"
           "    from scipy.integrate import simpson\n"
           "    return simpson, sp, stats\n")
    assert import_time_scipy_imports(src) == [(1, "scipy.special"), (3, "scipy"),
                                              (5, "scipy.optimize")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_no_scipy_at_import_time(path):
    assert import_time_scipy_imports(path.read_text()) == []


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


def test_detector_flags_an_uncalled_function():
    sources = {"a.py": ("def used():\n    return 1\n"
                        "def recursive(n):\n    return recursive(n - 1)\n"
                        "def unused():\n    return used()\n"),
               "b.py": "import a\nX = a.unused\ndef lonely():\n    return 0\n",
               "__init__.py": "from .b import lonely\ndef shim():\n    return 0\n"}
    assert uncalled_functions(sources) == [("a.py", "recursive"), ("b.py", "lonely")]


def test_every_function_has_a_package_caller():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert [f for f in uncalled_functions(sources) if f[1] not in PAPER_FORMULAS] == []


def test_tests_import_the_package_of_this_checkout():
    # pyproject.toml puts src/ on pytest's path, so a bare `pytest` tests this
    # tree and not an installed copy of the package
    import renyibounds

    assert pathlib.Path(renyibounds.__file__).resolve().parent == PACKAGE
