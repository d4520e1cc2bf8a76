"""A cold start imports only what it runs.

These tests run fresh interpreters, because the test process has
already imported everything the other tests use.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from phasectl import Grid, fields

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


# The 1D desk instance, with the uniform data the ODE oracle needs.
DESK = """
domain: {dim: 1, n: 64, length: 1.0}
time: {T: 1.0, N: 128}
params: {epsilon: 0.5, delta: 1.0}
init: {rho0: 0.4, mu0: 0.2}
control: {u_init: 0.1}
"""

# 64x64 cells with a non-uniform rho0, so the 2D solves run CG.
SQUARE = """
domain: {dim: 2, n: 64, length: 1.0}
time: {T: 0.05, N: 4}
params: {epsilon: 0.5, delta: 1.0}
init: {rho0: rho0.csv, mu0: 0.2}
control: {u_init: 0.1}
"""


def fresh_python(*args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


def scipy_modules_after(statements):
    """The scipy modules a fresh interpreter holds after ``statements``."""
    proc = fresh_python("-c", statements + (
        "\nimport sys\nprint('scipy:', *sorted(k for k in sys.modules"
        " if k == 'scipy' or k.startswith('scipy.')))"))
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.splitlines()[-1].split()
    assert last[0] == "scipy:", proc.stdout
    return last[1:]


def cli_main(*argv):
    return ("from phasectl import cli\n"
            "assert cli.main(%r) == 0" % [str(a) for a in argv])


@pytest.mark.parametrize("run", ["import", "desk forward", "64x64 forward",
                                 "check oracle"])
def test_cold_start_loads_no_scipy(tmp_path, run):
    """No scipy package loads: dptsv comes from scipy's LAPACK module
    file, loaded on its own, up to DCT_MATRIX_MAX cells per axis the 2D
    transforms are matrix products, and the ODE oracle integrates with
    phasectl's own Radau IIA (the check passes: exit code 0).  The
    import leaves that integrator, whose coefficients take numpy.linalg's
    first calls, to the first oracle run."""
    if run == "import":
        statements = ("import sys\nimport phasectl.cli\n"
                      "assert 'phasectl.radau' not in sys.modules")
    elif run == "64x64 forward":
        grid = Grid(2, 64, 1.0)
        x, y = grid.cell_centers().T
        fields.write_field_csv(
            str(tmp_path / "rho0.csv"), grid,
            0.4 + 0.05 * np.cos(np.pi * x) * np.cos(np.pi * y))
        (tmp_path / "square.yaml").write_text(SQUARE)
        statements = cli_main("forward", "--config", tmp_path / "square.yaml",
                              "--out", tmp_path / "out")
    else:
        (tmp_path / "desk.yaml").write_text(DESK)
        command = ["forward"] if run == "desk forward" else ["check", "oracle"]
        statements = cli_main(*command, "--config", tmp_path / "desk.yaml",
                              "--out", tmp_path / "out")
    assert scipy_modules_after(statements) == []


def test_cold_solve_past_the_matrix_bound_imports_scipy_fft():
    """The first 2D solve past DCT_MATRIX_MAX imports scipy.fft itself
    and passes the residual check."""
    modules = scipy_modules_after(
        "import numpy as np\n"
        "from phasectl import Grid, mesh\n"
        "grid = Grid(2, (mesh.DCT_MATRIX_MAX + 1, 3), 1.0)\n"
        "rng = np.random.default_rng(0)\n"
        "shift = rng.uniform(1.0, 2.0, (1, grid.num_cells))\n"
        "rhs = rng.uniform(-1.0, 1.0, (1, grid.num_cells))\n"
        "x = mesh.solve_shifted(grid, shift[0], rhs[0])\n"
        "mesh.check_residuals(grid, shift, x[None], rhs, [0])")
    assert "scipy.fft" in modules
    assert "scipy.linalg" not in modules
