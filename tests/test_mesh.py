import numpy as np
import pytest

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
        op[0, 0] = op[-1, -1] = -1.0
        ops.append(op / h**2)
    if g.dim == 1:
        return ops[0]
    return np.kron(ops[0], np.eye(g.n[1])) + np.kron(np.eye(g.n[0]), ops[1])


def test_grid_1d_layout():
    g = pc.make_grid(1, 4, 1.0)
    assert g.h == (0.25,)
    np.testing.assert_allclose(g.axis_centers(0),
                               [0.125, 0.375, 0.625, 0.875])


def test_grid_2d_weights():
    g = pc.make_grid(2, (2, 2), (1.0, 1.0))
    assert g.num_cells == 4
    assert g.weight == pytest.approx(0.25)
    assert g.weight * g.num_cells == pytest.approx(1.0)


def test_grid_3d_rejected():
    with pytest.raises(UnsupportedDimension):
        pc.make_grid(3, (2, 2, 2), (1.0, 1.0, 1.0))


def test_laplacian_kills_constants():
    g = pc.make_grid(2, (3, 4), (1.0, 2.0))
    v = np.full(g.num_cells, 3.7)
    assert np.max(np.abs(mesh.laplacian_apply(g, v))) == 0.0


def test_laplacian_hand_stencil():
    # zero-flux stencil on three cells of width one
    g = pc.make_grid(1, 3, 3.0)
    out = mesh.laplacian_apply(g, np.array([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(out, [1.0, 0.0, -1.0], atol=1e-14)


def test_laplacian_symmetric_dense_oracle():
    g = pc.make_grid(2, (3, 3), (1.0, 1.0))
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
    for g in (pc.make_grid(1, 7, 1.3), pc.make_grid(2, (4, 5), (1.0, 0.7))):
        v = np.random.default_rng(5).standard_normal(g.num_cells)
        semi = mesh.grad_inner(g, v, v)
        assert semi == pytest.approx(-mesh.inner_h(g, mesh.laplacian_apply(g, v), v),
                                     rel=1e-12)


def test_unit_measures():
    g = pc.make_grid(1, 8, 1.0)
    one = np.ones(g.num_cells)
    assert mesh.inner_h(g, one, one) == pytest.approx(1.0)
    assert mesh.norm_v(g, one) == pytest.approx(mesh.norm_h(g, one))
    tg = pc.make_time_grid(1.0, 4)
    two = np.full((5, 8), 2.0)
    assert mesh.inner_q(tg, g, two, two) == pytest.approx(4.0)


def test_trapezoid_weights():
    tg = pc.make_time_grid(2.0, 8)
    c = tg.trap_weights()
    assert c[0] == 0.5 and c[-1] == 0.5
    assert np.all(c[1:-1] == 1.0)
    assert tg.tau * c.sum() == pytest.approx(2.0)


def test_solve_shifted_dense_oracle():
    rng = np.random.default_rng(3)
    aniso = pc.make_grid(2, (12, 7), (1.0, 2.5))
    cases = [
        (pc.make_grid(1, 9, 1.0), 0.5 + rng.random(9)),
        (pc.make_grid(2, (4, 3), (1.0, 1.5)), 0.5 + rng.random(12)),
        (aniso, 0.5 + rng.random(aniso.num_cells)),
        # two decades of variation, far from the mean-shift preconditioner
        (aniso, np.exp(rng.uniform(np.log(0.1), np.log(50.0),
                                   aniso.num_cells))),
        # constant shift: the DCT solve is exact and no CG step is taken
        (aniso, np.full(aniso.num_cells, 3.7)),
    ]
    for g, shift in cases:
        rhs = rng.standard_normal(g.num_cells)
        x = mesh.solve_shifted(g, shift, rhs)
        dense = np.diag(shift) - dense_laplacian(g)
        np.testing.assert_allclose(x, np.linalg.solve(dense, rhs),
                                   rtol=1e-10, atol=1e-12)


def test_solve_shifted_2d_rejects_indefinite():
    rng = np.random.default_rng(4)
    g = pc.make_grid(2, (12, 7), (1.0, 2.5))
    rhs = rng.standard_normal(g.num_cells)
    shift = -50.0 + rng.standard_normal(g.num_cells)
    with pytest.raises(LinearSolveFailure, match="mean shift is not positive"):
        mesh.solve_shifted(g, shift, rhs)
    # positive mean, but one cell pulls the operator below zero
    g = pc.make_grid(2, (16, 16), (16.0, 16.0))
    shift = np.ones(g.num_cells)
    shift[37] = -100.0
    with pytest.raises(LinearSolveFailure, match="not positive definite"):
        mesh.solve_shifted(g, shift, rng.standard_normal(g.num_cells))


def test_solve_shifted_1d_rejects_indefinite():
    rng = np.random.default_rng(6)
    g = pc.make_grid(1, 16, 1.0)
    shift = np.ones(g.num_cells)
    shift[5] = -1000.0
    with pytest.raises(LinearSolveFailure, match="not positive definite"):
        mesh.solve_shifted(g, shift, rng.standard_normal(g.num_cells))


def test_solve_shifted_2d_budget_exhausted(monkeypatch):
    rng = np.random.default_rng(5)
    g = pc.make_grid(2, (12, 7), (1.0, 2.5))
    shift = np.exp(rng.uniform(np.log(0.1), np.log(50.0), g.num_cells))
    monkeypatch.setattr(mesh, "_CG_MAXITER", 1)
    with pytest.raises(LinearSolveFailure,
                       match=r"no convergence after 1 CG iterations, "
                             r"relative residual .* shift min .* mean "):
        mesh.solve_shifted(g, shift, rng.standard_normal(g.num_cells))


def test_norm_w_is_literal_sum():
    g = pc.make_grid(1, 6, 1.0)
    v = np.random.default_rng(9).standard_normal(6)
    lv = mesh.laplacian_apply(g, v)
    assert mesh.norm_w(g, v) == pytest.approx(mesh.norm_h(g, v) + mesh.norm_h(g, lv))


def test_field_shape_rejected():
    g = pc.make_grid(1, 6, 1.0)
    with pytest.raises(ShapeMismatch):
        g.check_field(np.zeros(5))
    tg = pc.make_time_grid(1.0, 3)
    with pytest.raises(ShapeMismatch):
        mesh.check_trajectory(tg, g, np.zeros((3, 6)))
