"""A cold start imports only what it runs.

These tests run fresh interpreters, because the test process has
already imported everything the other tests use.
"""

import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


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
