"""Static checks over the sources, with ``ast`` alone.

No linter is configured for the project, so these scans stand in for
three of its rules, and a fourth keeps scipy out of the package's
imports.
No imported name may go unused in the package or the tests (F401): a
name bound by ``import`` must be read in its module (a name only
assigned is not read), be listed in its ``__all__``, or sit on an
import marked ``# noqa: F401`` (an import kept for its side effect);
``__future__`` imports are exempt.  No parameter of a
module-level function or method in the package may go unused.  The
receiver of a method is exempt, and so are nested functions: their
signatures are fixed by the API they are passed to, such as a
right-hand side handed to the ODE integrator or an optimizer callback.
No helper of the package may go uncalled: every module-level function
or class, and every method of one but the dunder methods, must be read
by name (as a name or an attribute) somewhere in the package outside
its own definition, or be listed in an ``__all__``.  A scipy package
may be imported in the package only where a run needs it:
``mesh._load_lapack`` falls back to ``scipy.linalg.lapack`` when scipy's
LAPACK module file is missing, and ``mesh._dct``/``_idct`` call
``scipy.fft`` on an axis past ``DCT_MATRIX_MAX`` cells.
"""

import ast
import glob
import os
from collections import Counter

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
MODULES = sorted(glob.glob(os.path.join(ROOT, "src", "phasectl", "*.py")))
SOURCES = MODULES + sorted(glob.glob(os.path.join(ROOT, "tests", "*.py")))


def parse(path):
    with open(path) as f:
        return ast.parse(f.read(), path)


def loaded_names(node):
    """Names read under ``node``; a name only assigned is not used."""
    return {n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}


def exported_names(tree):
    """The names listed in the module's ``__all__``, if any."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            names.update(ast.literal_eval(node.value))
    return names


def unused_imports(path):
    """``<file>:<line> <name>`` of every import its module never reads,
    under the rule of the module docstring."""
    with open(path) as f:
        source = f.read()
    lines = source.splitlines()
    tree = ast.parse(source, path)
    used = loaded_names(tree) | exported_names(tree)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) \
                or getattr(node, "module", None) == "__future__" \
                or any("# noqa: F401" in line
                       for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        unused += ["%s:%d %s" % (os.path.basename(path), node.lineno, name)
                   for name in (a.asname or a.name.split(".")[0]
                                for a in node.names)
                   if name not in used]
    return sorted(unused)


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def checked_parameters(tree):
    """(function, parameter names) of every module-level function and
    of every method of a module-level class, less the receiver (the
    first parameter of a method)."""
    for node in tree.body:
        if isinstance(node, FUNCTIONS):
            yield node, parameters(node)
        elif isinstance(node, ast.ClassDef):
            for func in node.body:
                if isinstance(func, FUNCTIONS):
                    yield func, parameters(func)[1:]


def parameters(func):
    args = func.args
    named = args.posonlyargs + args.args + args.kwonlyargs
    named += [a for a in (args.vararg, args.kwarg) if a is not None]
    return [a.arg for a in named]


def test_scan_finds_an_unused_import(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from __future__ import annotations\n"
                    "import os\nimport sys  # noqa: F401\n"
                    "from json import dumps, loads\n"
                    "__all__ = ['loads']\n"
                    "import re\nre = None\n")
    assert unused_imports(str(path)) == ["mod.py:2 os", "mod.py:4 dumps",
                                         "mod.py:6 re"]


@pytest.mark.parametrize("path", SOURCES, ids=os.path.basename)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_no_unused_parameters(path):
    unused = []
    for func, names in checked_parameters(parse(path)):
        used = set().union(*(loaded_names(stmt) for stmt in func.body))
        unused += ["%s(%s) (line %d)" % (func.name, name, func.lineno)
                   for name in names if name not in used]
    assert unused == []


# Helpers no path of the package reads, each with its reason.
UNCALLED_ALLOWED = {
    # perfbench/tracer.py wraps both by name as part of its "potential"
    # layer; they go with that pin in a benchmark change (ROADMAP item 1).
    "Potential.value", "Potential.d3",
}


def definitions(tree):
    """(qualified name, node) of every module-level function and class,
    and of every method of such a class but the dunder methods."""
    for node in tree.body:
        if isinstance(node, FUNCTIONS + (ast.ClassDef,)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for func in node.body:
                if isinstance(func, FUNCTIONS) and not (
                        func.name.startswith("__")
                        and func.name.endswith("__")):
                    yield "%s.%s" % (node.name, func.name), func


def read_names(node):
    """How often each name is read under ``node``, as a name or as an
    attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute))
                   and not isinstance(n.ctx, ast.Store))


def uncalled_helpers(paths):
    """``<file>:<line> <name>`` of every definition in ``paths`` that no
    module of ``paths`` reads outside that definition, under the rule of
    the module docstring."""
    trees = {path: parse(path) for path in paths}
    reads, exported = Counter(), set()
    for tree in trees.values():
        reads.update(read_names(tree))
        exported |= exported_names(tree)
    uncalled = []
    for path, tree in trees.items():
        for name, node in definitions(tree):
            if node.name in exported or name in UNCALLED_ALLOWED:
                continue
            if reads[node.name] <= read_names(node)[node.name]:
                uncalled.append("%s:%d %s" % (os.path.basename(path),
                                              node.lineno, name))
    return sorted(uncalled)


def test_scan_finds_an_uncalled_helper(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("__all__ = ['api']\n"
                    "def api():\n    return helper() + Box().used\n"
                    "def helper():\n    return 1\n"
                    "def lonely(n):\n    return lonely(n - 1)\n"
                    "class Box:\n"
                    "    def __init__(self):\n        pass\n"
                    "    @property\n"
                    "    def used(self):\n        return 2\n"
                    "    def idle(self):\n        return self.idle()\n"
                    "class Spare:\n    pass\n")
    assert uncalled_helpers([str(path)]) == [
        "mod.py:14 Box.idle", "mod.py:16 Spare", "mod.py:6 lonely"]


def test_no_uncalled_helpers():
    assert uncalled_helpers(MODULES) == []


# (module, enclosing function, imported module) of each allowed import.
SCIPY_IMPORTS = [("mesh.py", "_dct", "scipy.fft"),
                 ("mesh.py", "_idct", "scipy.fft"),
                 ("mesh.py", "_load_lapack", "scipy.linalg.lapack")]


def scipy_imports(path):
    """(module, enclosing function or None, imported module) of every
    import of a scipy package in ``path``."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                names = [a.name for a in child.names]
            elif isinstance(child, ast.ImportFrom) and not child.level:
                names = [child.module]
            else:
                visit(child, child.name if isinstance(child, FUNCTIONS)
                      else func)
                continue
            found.extend((os.path.basename(path), func, name)
                         for name in names
                         if name == "scipy" or name.startswith("scipy."))

    visit(parse(path), None)
    return found


def test_scan_finds_scipy_imports(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import scipy\n"
                    "def f():\n"
                    "    if True:\n"
                    "        from scipy.integrate import solve_ivp\n"
                    "    import numpy, scipy.fft as fft\n"
                    "    from . import scipyish\n")
    assert scipy_imports(str(path)) == [
        ("mod.py", None, "scipy"), ("mod.py", "f", "scipy.integrate"),
        ("mod.py", "f", "scipy.fft")]


def test_scipy_imported_only_where_a_run_needs_it():
    assert sorted(sum(map(scipy_imports, MODULES), [])) == SCIPY_IMPORTS
