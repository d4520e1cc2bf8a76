"""Static checks over the sources, with ``ast`` alone.

No linter is configured for the project, so these scans stand in for
two of its rules.  No imported name may go unused in the package or the
tests (F401): a name bound by ``import`` must be read in its module (a
name only assigned is not read), be listed in its ``__all__``, or sit
on an import marked ``# noqa: F401`` (an import kept for its side
effect); ``__future__`` imports are exempt.  No parameter of a
module-level function or method in the package may go unused.  The
receiver of a method is exempt, and so are nested functions: their
signatures are fixed by the API they are passed to, such as a
``solve_ivp`` right-hand side or an optimizer callback.
"""

import ast
import glob
import os

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


def unused_imports(path):
    """``<file>:<line> <name>`` of every import its module never reads,
    under the rule of the module docstring."""
    with open(path) as f:
        source = f.read()
    lines = source.splitlines()
    tree = ast.parse(source, path)
    used = loaded_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
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
