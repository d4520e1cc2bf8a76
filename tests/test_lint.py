"""Static checks over the package sources, with ``ast`` alone.

No imported name may go unused (the re-exports of ``__init__.py`` and
``__future__`` imports are exempt), and no parameter of a module-level
function or method may go unused.  The receiver of a method is exempt,
and so are nested functions: their signatures are fixed by the API they
are passed to, such as a ``solve_ivp`` right-hand side or an optimizer
callback.
"""

import ast
import glob
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "phasectl")
MODULES = sorted(glob.glob(os.path.join(SRC, "*.py")))


def parse(path):
    with open(path) as f:
        return ast.parse(f.read(), path)


def loaded_names(node):
    """Names read under ``node``; a name only assigned is not used."""
    return {n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}


def imported_names(tree):
    """(bound name, line) of every import outside ``__future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


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


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if os.path.basename(p) != "__init__.py"],
                         ids=os.path.basename)
def test_no_unused_imports(path):
    tree = parse(path)
    used = loaded_names(tree)
    unused = ["%s (line %d)" % (name, line)
              for name, line in imported_names(tree) if name not in used]
    assert unused == []


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_no_unused_parameters(path):
    unused = []
    for func, names in checked_parameters(parse(path)):
        used = set().union(*(loaded_names(stmt) for stmt in func.body))
        unused += ["%s(%s) (line %d)" % (func.name, name, func.lineno)
                   for name in names if name not in used]
    assert unused == []
