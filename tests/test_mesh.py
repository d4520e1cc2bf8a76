import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phasectl as pc
from phasectl import mesh
from phasectl.errors import (LinearSolveFailure, ShapeMismatch,
                             UnsupportedDimension)


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


def test_solve_shifted_2d_budget_exhausted(monkeypatch):
    rng = np.random.default_rng(5)
    g = pc.Grid(2, (12, 7), (1.0, 2.5))
    shift = np.exp(rng.uniform(np.log(0.1), np.log(50.0), g.num_cells))
    monkeypatch.setattr(mesh, "_CG_MAXITER", 1)
    with pytest.raises(LinearSolveFailure,
                       match=r"no convergence after 1 CG iterations, "
                             r"relative residual .* shift min .* mean "):
        mesh.solve_shifted(g, shift, rng.standard_normal(g.num_cells))


def test_solve_shifted_residual_check_holds_at_large_values(monkeypatch):
    """|rhs|^2 overflows here; a 1% error must still fail the check."""
    rng = np.random.default_rng(7)
    g = pc.Grid(1, 8, 1.0)
    shift = 0.5 + rng.random(g.num_cells)
    rhs = 1e300 * (0.5 + rng.random(g.num_cells))
    mesh.solve_shifted(g, shift, rhs, check=True)  # the exact solve passes
    dptsv = mesh.dptsv

    def off_by_one_percent(*args, **kwargs):
        d, e, x, info = dptsv(*args, **kwargs)
        return d, e, 1.01 * x, info

    monkeypatch.setattr(mesh, "dptsv", off_by_one_percent)
    with pytest.raises(LinearSolveFailure, match="linear residual"):
        mesh.solve_shifted(g, shift, rhs, check=True)


@pytest.mark.parametrize("g", [pc.Grid(1, 8, 1.0),
                               pc.Grid(2, (5, 4), (1.0, 1.5))],
                         ids=["1d", "2d"])
def test_solve_shifted_residual_check_at_ordinary_values(g, monkeypatch):
    """|rhs| ~ 1: the exact solve passes, a 1e-6 relative error fails."""
    rng = np.random.default_rng(8)
    shift = 0.5 + rng.random(g.num_cells)
    rhs = rng.standard_normal(g.num_cells)
    mesh.solve_shifted(g, shift, rhs, check=True)
    name = "dptsv" if g.dim == 1 else "_pcg"
    solve = getattr(mesh, name)

    def one_ppm_off(*args, **kwargs):
        if g.dim == 2:
            return (1.0 + 1e-6) * solve(*args, **kwargs)
        d, e, x, info = solve(*args, **kwargs)
        return d, e, (1.0 + 1e-6) * x, info

    monkeypatch.setattr(mesh, name, one_ppm_off)
    with pytest.raises(LinearSolveFailure, match="linear residual"):
        mesh.solve_shifted(g, shift, rhs, check=True)


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
