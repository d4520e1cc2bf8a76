"""Every imported name is used, and a cold start imports only what it runs.

No linter is configured for the project, so this scan stands in for the
unused-import rule (F401): a name bound by ``import`` must be read in
the module, be listed in its ``__all__``, or sit on an import marked
``# noqa: F401`` (an import kept for its side effect).

The cold-start tests run fresh interpreters, because the test process
has already imported everything the other tests use.
"""

import ast
import glob
import os
import subprocess
import sys

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


# The 1D desk instance, with the uniform data the ODE oracle needs.
DESK = """
domain: {dim: 1, n: 64, length: 1.0}
time: {T: 1.0, N: 128}
params: {epsilon: 0.5, delta: 1.0}
init: {rho0: 0.4, mu0: 0.2}
control: {u_init: 0.1}
"""


def fresh_python(*args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


def test_cli_import_skips_the_ode_integrator():
    """Only ``check oracle`` integrates an ODE; the other commands do not
    pay for importing scipy.integrate and its scipy.optimize tree."""
    proc = fresh_python("-c", "import sys, phasectl.cli; print(*sorted("
                        "set(sys.modules) & {'scipy.integrate', "
                        "'scipy.optimize'}))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_cold_check_oracle_passes(tmp_path):
    """The oracle's function-level import works as the first one."""
    cfg = tmp_path / "desk.yaml"
    cfg.write_text(DESK)
    proc = fresh_python("-m", "phasectl.cli", "check", "oracle", "--config",
                        str(cfg), "--out", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    assert "check oracle: PASS" in proc.stdout
