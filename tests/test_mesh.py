import importlib.machinery
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

import phasectl as pc
from phasectl import mesh
from phasectl.errors import (LinearSolveFailure, ShapeMismatch,
                             UnsupportedDimension)
from conftest import off_by


def dense_laplacian(g):
    """Dense zero-flux Laplacian on flat fields, the oracle for the solvers."""
    ops = []
    for m, h in zip(g.n, g.h):
        # Mirrored ghost cells give zero flux through the end faces.
        op = np.diag(np.full(m, -2.0)) + np.eye(m, k=1) + np.eye(m, k=-1)
        op[0, 0] += 1.0
        op[-1, -1] += 1.0
        ops.append(op / h**2)
    if g.dim == 1:
        return ops[0]
    return np.kron(ops[0], np.eye(g.n[1])) + np.kron(np.eye(g.n[0]), ops[1])


def test_grid_1d_layout():
    g = pc.Grid(1, 4, 1.0)
    assert g.h == (0.25,)
    np.testing.assert_allclose(g.axis_centers(0),
                               [0.125, 0.375, 0.625, 0.875])


def test_grid_2d_weights():
    g = pc.Grid(2, (2, 2), (1.0, 1.0))
    assert g.num_cells == 4
    assert g.weight == pytest.approx(0.25)
    assert g.weight * g.num_cells == pytest.approx(1.0)


def test_grid_3d_rejected():
    with pytest.raises(UnsupportedDimension):
        pc.Grid(3, (2, 2, 2), (1.0, 1.0, 1.0))


def test_laplacian_kills_constants():
    g = pc.Grid(2, (3, 4), (1.0, 2.0))
    v = np.full(g.num_cells, 3.7)
    assert np.max(np.abs(mesh.laplacian_apply(g, v))) == 0.0


def test_laplacian_hand_stencil():
    # zero-flux stencil on three cells of width one
    g = pc.Grid(1, 3, 3.0)
    out = mesh.laplacian_apply(g, np.array([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(out, [1.0, 0.0, -1.0], atol=1e-14)


def test_laplacian_symmetric_dense_oracle():
    g = pc.Grid(2, (3, 3), (1.0, 1.0))
    rng = np.random.default_rng(11)
    v = rng.standard_normal(g.num_cells)
    w = rng.standard_normal(g.num_cells)
    lv = mesh.laplacian_apply(g, v)
    lw = mesh.laplacian_apply(g, w)
    assert mesh.inner_h(g, lv, w) == pytest.approx(mesh.inner_h(g, v, lw),
                                                  rel=1e-13, abs=1e-14)
    dense = dense_laplacian(g)
    np.testing.assert_allclose(dense, dense.T, atol=1e-14)
    np.testing.assert_allclose(dense @ v, lv, atol=1e-12)


def test_h1_identity_matches_laplacian():
    # face-difference seminorm equals -<Lv, v> for zero-flux stencils
    for g in (pc.Grid(1, 7, 1.3), pc.Grid(2, (4, 5), (1.0, 0.7))):
        v = np.random.default_rng(5).standard_normal(g.num_cells)
        semi = mesh.grad_inner(g, v, v)
        assert semi == pytest.approx(-mesh.inner_h(g, mesh.laplacian_apply(g, v), v),
                                     rel=1e-12)


def test_unit_measures():
    g = pc.Grid(1, 8, 1.0)
    one = np.ones(g.num_cells)
    assert mesh.inner_h(g, one, one) == pytest.approx(1.0)
    assert mesh.norm_v(g, one) == pytest.approx(mesh.norm_h(g, one))
    tg = pc.TimeGrid(1.0, 4)
    two = np.full((5, 8), 2.0)
    assert mesh.inner_q(tg, g, two, two) == pytest.approx(4.0)


def test_trapezoid_weights():
    tg = pc.TimeGrid(2.0, 8)
    c = tg.trap_weights()
    assert c[0] == 0.5 and c[-1] == 0.5
    assert np.all(c[1:-1] == 1.0)
    assert tg.tau * c.sum() == pytest.approx(2.0)


def test_solve_shifted_dense_oracle():
    rng = np.random.default_rng(3)
    aniso = pc.Grid(2, (12, 7), (1.0, 2.5))
    cases = [
        (pc.Grid(1, 9, 1.0), 0.5 + rng.random(9)),
        (pc.Grid(2, (4, 3), (1.0, 1.5)), 0.5 + rng.random(12)),
        (aniso, 0.5 + rng.random(aniso.num_cells)),
        # two decades of variation, far from the mean-shift preconditioner
        (aniso, np.exp(rng.uniform(np.log(0.1), np.log(50.0),
                                   aniso.num_cells))),
        # constant shift: the DCT solve is exact and no CG step is taken
        (aniso, np.full(aniso.num_cells, 3.7)),
        # one cell: L vanishes and the solve is a division
        (pc.Grid(1, 1, 0.7), np.array([2.5])),
    ]
    for g, shift in cases:
        rhs = rng.standard_normal(g.num_cells)
        x = mesh.solve_shifted(g, shift, rhs)
        dense = np.diag(shift) - dense_laplacian(g)
        np.testing.assert_allclose(x, np.linalg.solve(dense, rhs),
                                   rtol=1e-10, atol=1e-12)


def reference_pcg(g, shift, rhs):
    """Textbook real-space PCG on dense matrices, preconditioned by the
    solve at the mean shift and started from it, with the stopping rule
    of ``mesh._CG_RTOL``; returns the solution and the iteration count."""
    lap = dense_laplacian(g)
    a = np.diag(shift) - lap
    m = np.mean(shift) * np.eye(g.num_cells) - lap
    x = np.linalg.solve(m, rhs)
    r = rhs - a @ x
    k = 0
    while np.linalg.norm(r) > mesh._CG_RTOL * np.linalg.norm(rhs):
        z = np.linalg.solve(m, r)
        rz_new = r @ z
        p = z if k == 0 else z + rz_new / rz * p
        rz = rz_new
        ap = a @ p
        alpha = rz / (p @ ap)
        x, r, k = x + alpha * p, r - alpha * ap, k + 1
    return x, k


@pytest.mark.parametrize("spread", ["0.3%", "30%", "two decades"])
def test_pcg_matches_textbook_real_space_pcg(spread, monkeypatch):
    """CG on DCT coefficients is CG in real space in another orthonormal
    basis: the same solution and the same number of iterations."""
    rng = np.random.default_rng(12)
    g = pc.Grid(2, (12, 7), (1.0, 2.5))
    u = rng.uniform(-1.0, 1.0, g.num_cells)
    shift = {"0.3%": 2.0 * (1.0 + 0.0015 * u),
             "30%": 2.0 * (1.0 + 0.15 * u),
             "two decades": 10.0 ** u}[spread]
    rhs = rng.standard_normal(g.num_cells)
    ref, k = reference_pcg(g, shift, rhs)
    assert k >= 2
    x = mesh.solve_shifted(g, shift, rhs)
    assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))
    monkeypatch.setattr(mesh, "_CG_MAXITER", k - 1)
    with pytest.raises(LinearSolveFailure,
                       match="no convergence after %d CG" % (k - 1)):
        mesh.solve_shifted(g, shift, rhs)
    monkeypatch.setattr(mesh, "_CG_MAXITER", k)
    assert np.array_equal(mesh.solve_shifted(g, shift, rhs), x)


PAST = (mesh.DCT_MATRIX_MAX + 1, 3)


@pytest.mark.parametrize("n", [(1, 5), (3, 4), (12, 7), (33, 32), (64, 64),
                               PAST], ids=str)
def test_dct_matrices_agree_with_scipy_fft(n):
    """Up to the bound the transforms are products with the cached
    matrices, past it scipy.fft; both paths agree with each other."""
    rng = np.random.default_rng(14)
    g = pc.Grid(2, n, (1.0, 2.5))
    a = rng.standard_normal(n)
    c0, c1 = g._dct_matrices
    fft = scipy.fft.dctn(a, type=2, norm="ortho")
    tol = 1e-13 * np.abs(a).max()
    for got in (mesh._dct(g, a), c0 @ a @ c1.T):
        assert np.max(np.abs(got - fft)) <= tol
    for got in (mesh._idct(g, a), c0.T @ a @ c1):
        assert np.max(np.abs(got - scipy.fft.idctn(a, type=2, norm="ortho"))
                      ) <= tol
    for c, m in zip(g._dct_matrices, n):
        np.testing.assert_allclose(c @ c.T, np.eye(m), rtol=0.0, atol=1e-14)
        assert not c.flags.writeable


def test_pcg_past_the_matrix_bound_runs_on_scipy_fft(monkeypatch):
    """Past DCT_MATRIX_MAX the solve is bit-identical to one whose
    transforms all call scipy.fft, and passes the residual check."""
    rng = np.random.default_rng(15)
    g = pc.Grid(2, PAST, (1.0, 2.5))
    shift = np.exp(rng.uniform(np.log(0.1), np.log(50.0), g.num_cells))
    rhs = rng.standard_normal(g.num_cells)
    x = mesh.solve_shifted(g, shift, rhs)
    mesh.check_residuals(g, shift[None], x[None], rhs[None], [1])
    monkeypatch.setattr(mesh, "_dct", lambda grid, a: scipy.fft.dctn(
        a, type=2, norm="ortho"))
    monkeypatch.setattr(mesh, "_idct", lambda grid, c: scipy.fft.idctn(
        c, type=2, norm="ortho"))
    assert np.array_equal(mesh.solve_shifted(g, shift, rhs), x)
    assert "_dct_matrices" not in vars(g)


def test_solve_shifted_2d_applies_the_stencil_only_in_its_check(monkeypatch):
    """The solve applies no stencil; the residual check applies one to
    its whole block of rows."""
    calls = []
    laplacian = mesh._laplacian

    def counted(grid, a):
        calls.append(a.shape)
        return laplacian(grid, a)

    monkeypatch.setattr(mesh, "_laplacian", counted)
    rng = np.random.default_rng(13)
    g = pc.Grid(2, (12, 7), (1.0, 2.5))
    shift = np.exp(rng.uniform(np.log(0.1), np.log(50.0), g.num_cells))
    rhs = rng.standard_normal(g.num_cells)
    x = mesh.solve_shifted(g, shift, rhs)
    assert calls == []
    block = [np.stack([v] * 3) for v in (shift, x, rhs)]
    mesh.check_residuals(g, *block, range(3))
    assert calls == [(3,) + g.n]


@pytest.mark.parametrize("size", [1e160, 1e200, 1e-170])
def test_solve_shifted_2d_converges_when_rhs_squares_leave_the_range(size):
    """|rhs|^2 overflows (or underflows to 0), so an unscaled relative
    residual would read 0 or NaN and stop CG at its start."""
    rng = np.random.default_rng(3)
    g = pc.Grid(2, (12, 7), (1.0, 2.5))
    shift = np.exp(rng.uniform(np.log(0.1), np.log(50.0), g.num_cells))
    rhs = rng.standard_normal(g.num_cells)
    x = mesh.solve_shifted(g, shift, size * rhs)
    dense = np.diag(shift) - dense_laplacian(g)
    np.testing.assert_allclose(x / size, np.linalg.solve(dense, rhs),
                               rtol=1e-10, atol=1e-12)


def test_solve_shifted_2d_rejects_indefinite():
    rng = np.random.default_rng(4)
    g = pc.Grid(2, (12, 7), (1.0, 2.5))
    rhs = rng.standard_normal(g.num_cells)
    shift = -50.0 + rng.standard_normal(g.num_cells)
    with pytest.raises(LinearSolveFailure, match="mean shift is not positive"):
        mesh.solve_shifted(g, shift, rhs)
    # positive mean, but one cell pulls the operator below zero
    g = pc.Grid(2, (16, 16), (16.0, 16.0))
    shift = np.ones(g.num_cells)
    shift[37] = -100.0
    with pytest.raises(LinearSolveFailure, match="not positive definite"):
        mesh.solve_shifted(g, shift, rng.standard_normal(g.num_cells))


def test_solve_shifted_1d_rejects_indefinite():
    rng = np.random.default_rng(6)
    g = pc.Grid(1, 16, 1.0)
    shift = np.ones(g.num_cells)
    shift[5] = -1000.0
    with pytest.raises(LinearSolveFailure, match="not positive definite"):
        mesh.solve_shifted(g, shift, rng.standard_normal(g.num_cells))


def assert_same_as_lapack(loaded):
    """``loaded`` agrees with scipy.linalg.lapack.dptsv bit for bit on
    2000 random SPD 64-cell systems and gives the same info on an
    indefinite one."""
    rng = np.random.default_rng(11)
    # Diagonally dominant with a positive diagonal, so SPD.
    diag = rng.uniform(2.0, 50.0, (2000, 64))
    off = rng.uniform(-1.0, 1.0, (2000, 63))
    rhs = rng.standard_normal((2000, 64))
    indefinite = diag[0].copy()
    indefinite[40] = -3.0
    systems = list(zip(diag, off, rhs)) + [(indefinite, off[0], rhs[0])]
    for d, e, b in systems:
        got = loaded(d.copy(), e, b)
        want = lapack.dptsv(d.copy(), e, b)
        assert [np.asarray(v).tobytes() for v in got] == \
            [np.asarray(v).tobytes() for v in want]
    assert got[3] == want[3] == 41


def test_directly_loaded_dptsv_matches_scipy_lapack():
    """A fresh interpreter loads dptsv from the module file before any
    scipy package; scipy.linalg, imported after it, gets its own copy,
    and the two agree."""
    script = ("import sys\n"
              "from phasectl import mesh\n"
              "assert 'scipy.linalg' not in sys.modules\n"
              "import test_mesh\n"
              "assert mesh.dptsv is not test_mesh.lapack.dptsv\n"
              "test_mesh.assert_same_as_lapack(mesh.dptsv)\n")
    tests = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.path.join(tests, os.pardir, "src"))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tests, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("route", ["direct", "fallback"])
def test_dptsv_lookup_and_fallback(monkeypatch, route):
    """Without scipy.linalg loaded, dptsv comes from the module file under
    a private name or, when the lookup finds no file, from
    scipy.linalg.lapack; either agrees with scipy's."""
    loads = []

    class Loader(importlib.machinery.ExtensionFileLoader):
        def __init__(self, name, path):
            loads.append((name, os.path.basename(path).split(".")[0]))
            super().__init__(name, path)

    monkeypatch.setattr(importlib.machinery, "ExtensionFileLoader", Loader)
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    if route == "fallback":
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])
    loaded = mesh._load_dptsv()
    assert loads == ([("phasectl._flapack", "_flapack")]
                     if route == "direct" else [])
    assert_same_as_lapack(loaded)


def test_loading_dptsv_reuses_scipy_lapack(monkeypatch):
    """A process that has imported scipy.linalg keeps one copy of its
    LAPACK module: the loader takes dptsv from it."""
    assert mesh._load_dptsv() is lapack.dptsv
    fake = type(sys)("scipy.linalg._flapack")
    fake.dptsv = object()
    monkeypatch.setitem(sys.modules, "scipy.linalg._flapack", fake)
    assert mesh._load_dptsv() is fake.dptsv


def test_solve_shifted_2d_budget_exhausted(monkeypatch):
    rng = np.random.default_rng(5)
    g = pc.Grid(2, (12, 7), (1.0, 2.5))
    shift = np.exp(rng.uniform(np.log(0.1), np.log(50.0), g.num_cells))
    monkeypatch.setattr(mesh, "_CG_MAXITER", 1)
    with pytest.raises(LinearSolveFailure,
                       match=r"no convergence after 1 CG iterations, "
                             r"relative residual .* shift min .* mean "):
        mesh.solve_shifted(g, shift, rng.standard_normal(g.num_cells))


def checked_solve(g, shift, rhs):
    with mesh.CheckedSolves(g) as solves:
        return solves.solve(shift, rhs)


def test_solve_shifted_residual_check_holds_at_large_values(monkeypatch):
    """|rhs|^2 overflows here; a 1% error must still fail the check."""
    rng = np.random.default_rng(7)
    g = pc.Grid(1, 8, 1.0)
    shift = 0.5 + rng.random(g.num_cells)
    rhs = 1e300 * (0.5 + rng.random(g.num_cells))
    checked_solve(g, shift, rhs)  # the exact solve passes
    monkeypatch.setattr(mesh, "dptsv", off_by(1.01, mesh.dptsv))
    with pytest.raises(LinearSolveFailure, match="linear residual"):
        checked_solve(g, shift, rhs)


@pytest.mark.parametrize("g", [pc.Grid(1, 8, 1.0),
                               pc.Grid(2, (5, 4), (1.0, 1.5))],
                         ids=["1d", "2d"])
def test_solve_shifted_residual_check_at_ordinary_values(g, monkeypatch):
    """|rhs| ~ 1: the exact solve passes, a 1e-6 relative error fails."""
    rng = np.random.default_rng(8)
    shift = 0.5 + rng.random(g.num_cells)
    rhs = rng.standard_normal(g.num_cells)
    checked_solve(g, shift, rhs)
    name = "dptsv" if g.dim == 1 else "_pcg"
    monkeypatch.setattr(mesh, name, off_by(1.0 + 1e-6, getattr(mesh, name)))
    with pytest.raises(LinearSolveFailure, match="linear residual"):
        checked_solve(g, shift, rhs)


def test_residual_check_judges_each_row_on_its_own_scale():
    """Rows at 1e300 and 1e-300 in one block.  The bound is
    LINEAR_TOL * (1 + |rhs|) per row: a 1% error fails at 1e300, and at
    1e-300 an error of 1e-6 fails while one of 1% (1e-302) passes.  Over
    a shared scale of 1e300 the small row's residual would square to 0,
    over 1e-300 the large row's would overflow."""
    rng = np.random.default_rng(9)
    g = pc.Grid(1, 8, 1.0)
    shift = 0.5 + rng.random((2, g.num_cells))
    rhs = np.array([[1e300], [1e-300]]) * (0.5 + rng.random((2, g.num_cells)))
    x = np.stack([mesh.solve_shifted(g, s, r) for s, r in zip(shift, rhs)])
    mesh.check_residuals(g, shift, x, rhs, [4, 5])
    small_ok = x.copy()
    small_ok[1] *= 1.01
    mesh.check_residuals(g, shift, small_ok, rhs, [4, 5])
    for row, error in ((0, 0.01 * x[0]), (1, 1e-6)):
        wrong = x.copy()
        wrong[row] += error
        with pytest.raises(LinearSolveFailure, match="linear residual") as err:
            mesh.check_residuals(g, shift, wrong, rhs, [4, 5])
        assert err.value.step == 4 + row


def test_residual_check_fails_a_nan_row():
    rng = np.random.default_rng(10)
    g = pc.Grid(1, 8, 1.0)
    shift = 0.5 + rng.random((3, g.num_cells))
    rhs = rng.standard_normal((3, g.num_cells))
    x = np.stack([mesh.solve_shifted(g, s, r) for s, r in zip(shift, rhs)])
    for block in (x, rhs):
        block[1, 3] = np.nan
        with pytest.raises(LinearSolveFailure, match="linear residual") as err:
            mesh.check_residuals(g, shift, x, rhs, [7, 8, 9])
        assert err.value.step == 8
        block[1, 3] = 0.0


def test_checked_solves_check_a_block_when_it_fills(monkeypatch):
    """64 cells: a block holds CHECK_BLOCK_BYTES / 512 = 32 rows."""
    checked = []
    check = mesh.check_residuals

    def counted(grid, shift, x, rhs, steps):
        checked.append(list(steps))
        check(grid, shift, x, rhs, steps)

    monkeypatch.setattr(mesh, "check_residuals", counted)
    g = pc.Grid(1, 64, 1.0)
    with mesh.CheckedSolves(g, 40) as solves:
        for step in range(1, 41):
            solves.step = step
            solves.solve(np.ones(64), np.ones(64))
            assert len(checked) == (step >= 32)
    assert checked == [list(range(1, 33)), list(range(33, 41))]


def test_checked_solves_check_each_row_past_the_budget(monkeypatch):
    """33x32 cells: two rows take more than CHECK_BLOCK_BYTES, so a
    block holds one row and each solve is checked at once.  A solve made
    1e-6 wrong at step 3 fails there, with that step and the march's
    steps."""
    rng = np.random.default_rng(11)
    g = pc.Grid(2, (33, 32), (1.0, 1.0))
    assert 2 * 8 * g.num_cells > mesh.CHECK_BLOCK_BYTES
    shift = 0.5 + rng.random(g.num_cells)
    rhs = rng.standard_normal(g.num_cells)
    pcg = mesh._pcg
    calls = []

    def wrong_at_step_3(grid, shift, rhs):
        calls.append(None)
        x = pcg(grid, shift, rhs)
        return x * (1.0 + 1e-6) if len(calls) == 3 else x

    monkeypatch.setattr(mesh, "_pcg", wrong_at_step_3)
    with pytest.raises(LinearSolveFailure, match="linear residual") as err:
        with mesh.CheckedSolves(g, 5) as solves:
            for step in range(1, 6):
                solves.step = step
                solves.solve(shift, rhs)
    assert (err.value.step, err.value.steps) == (3, 5)
    assert len(calls) == 3


def test_norm_w_is_literal_sum():
    g = pc.Grid(1, 6, 1.0)
    v = np.random.default_rng(9).standard_normal(6)
    lv = mesh.laplacian_apply(g, v)
    assert mesh.norm_w(g, v) == pytest.approx(mesh.norm_h(g, v) + mesh.norm_h(g, lv))


def test_field_shape_rejected():
    g = pc.Grid(1, 6, 1.0)
    with pytest.raises(ShapeMismatch):
        g.check_field(np.zeros(5))
    tg = pc.TimeGrid(1.0, 3)
    with pytest.raises(ShapeMismatch):
        mesh.check_trajectory(tg, g, np.zeros((3, 6)))
    with pytest.raises(ShapeMismatch, match=r"expected \(\.\.\., 6\)"):
        mesh.laplacian_apply(g, np.zeros((4, 5)))


# Random grids for the property tests: per-axis cell counts 1..12 and
# independent axis lengths, with a seed for the fields drawn on them.
GRIDS = st.integers(1, 2).flatmap(lambda dim: st.builds(
    pc.Grid, st.just(dim),
    st.tuples(*[st.integers(1, 12)] * dim),
    st.tuples(*[st.floats(0.5, 4.0)] * dim)))
SEEDS = st.integers(0, 2**32 - 1)
# Derandomized, so every run draws the same examples.
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


@PROPERTY
@given(g=GRIDS, seed=SEEDS)
def test_laplacian_property_dense_oracle(g, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(g.num_cells)
    np.testing.assert_allclose(mesh.laplacian_apply(g, v),
                               dense_laplacian(g) @ v, rtol=1e-10, atol=1e-12)
    # A (3, cells) stack gives one value per field: the value of its row,
    # bit for bit in 1D.
    a, b = rng.standard_normal((2, 3, g.num_cells))
    np.testing.assert_allclose(mesh.laplacian_apply(g, a),
                               a @ dense_laplacian(g).T, rtol=1e-10,
                               atol=1e-12)
    rtol = 0.0 if g.dim == 1 else 1e-13
    for op, args in ((mesh.inner_h, (a, b)), (mesh.norm_h, (a,)),
                     (mesh.norm_v, (a,)), (mesh.norm_w, (a,))):
        stacked = op(g, *args)
        assert stacked.shape == (3,)
        rows = [op(g, *(x[k] for x in args)) for k in range(3)]
        np.testing.assert_allclose(stacked, rows, rtol=rtol, atol=0.0)


def reference_laplacian(grid, a):
    """The stencil loop as first written: zeroed output, both faces added."""
    out = np.zeros_like(a)
    for axis in range(-grid.dim, 0):
        o, s = out.swapaxes(0, axis), a.swapaxes(0, axis)
        flux = (s[1:] - s[:-1]) / grid.h[axis] ** 2
        o[:-1] += flux
        o[1:] -= flux
    return out


@PROPERTY
@given(g=GRIDS, seed=SEEDS, stack=st.sampled_from([(), (3,), (2, 3)]))
def test_laplacian_property_matches_reference_loop(g, seed, stack):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(stack + g.n)
    # Exact zeros and repeated values give zero fluxes.
    a[rng.random(a.shape) < 0.2] = 0.0
    a[rng.random(a.shape) < 0.2] = 1.0
    assert np.array_equal(mesh._laplacian(g, a), reference_laplacian(g, a))
    flat = a.reshape(stack + (g.num_cells,))
    assert np.array_equal(mesh.laplacian_apply(g, flat),
                          reference_laplacian(g, a).reshape(flat.shape))


@PROPERTY
@given(g=GRIDS, seed=SEEDS, spread=st.tuples(st.floats(-1.0, 3.0),
                                             st.floats(-1.0, 3.0)))
def test_solve_shifted_property_dense_oracle(g, seed, spread):
    # log-uniform shifts between two decades drawn from 0.1..1e3
    rng = np.random.default_rng(seed)
    shift = 10.0 ** rng.uniform(min(spread), max(spread), g.num_cells)
    rhs = rng.standard_normal(g.num_cells)
    dense = np.diag(shift) - dense_laplacian(g)
    np.testing.assert_allclose(mesh.solve_shifted(g, shift, rhs),
                               np.linalg.solve(dense, rhs),
                               rtol=1e-10, atol=1e-12)


@PROPERTY
@given(n=st.integers(1, 12), length=st.floats(0.5, 4.0), seed=SEEDS)
def test_solve_shifted_property_1d_rejects_indefinite(n, length, seed):
    # The other cells sum to less than 1e3, so the constant field has
    # negative energy and the operator is indefinite.
    g = pc.Grid(1, n, length)
    rng = np.random.default_rng(seed)
    shift = rng.uniform(0.1, 50.0, n)
    shift[rng.integers(n)] = -1e3
    with pytest.raises(LinearSolveFailure, match="not positive definite"):
        mesh.solve_shifted(g, shift, rng.standard_normal(n))
