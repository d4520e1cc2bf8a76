"""Every imported name is used by the module that imports it.

No linter is configured for the project, so this scan stands in for the
unused-import rule (F401): a name bound by ``import`` must be read in
the module, be listed in its ``__all__``, or sit on an import marked
``# noqa: F401`` (an import kept for its side effect).
"""

import ast
import glob
import os

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SOURCES = sorted(glob.glob(os.path.join(ROOT, "src", "phasectl", "*.py"))
                 + glob.glob(os.path.join(ROOT, "tests", "*.py")))


def unused_imports(path):
    with open(path) as f:
        source = f.read()
    lines = source.splitlines()
    tree = ast.parse(source, path)
    imported, used, exported = {}, set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            span = lines[node.lineno - 1:node.end_lineno]
            if getattr(node, "module", None) == "__future__" \
                    or any("# noqa: F401" in line for line in span):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return sorted("%s:%d %s" % (os.path.basename(path), line, name)
                  for name, line in imported.items()
                  if name not in used and name not in exported)


def test_scan_finds_an_unused_import(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import os\nimport sys  # noqa: F401\n"
                    "from json import dumps, loads\n"
                    "__all__ = ['loads']\n")
    assert unused_imports(str(path)) == ["mod.py:1 os", "mod.py:3 dumps"]


def test_no_unused_imports():
    assert SOURCES
    unused = [hit for path in SOURCES for hit in unused_imports(path)]
    assert not unused
