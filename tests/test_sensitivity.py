import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import phasectl as pc
from phasectl import checks, mesh, sensitivity
from phasectl.errors import LinearSolveFailure, ValidationError
from conftest import build_problem, manufactured


def test_tangent_zero_direction(cfg, small):
    st = pc.solve_state(small, 0.3, cfg)
    tan = pc.solve_tangent(small, st, 0.0)
    assert np.max(np.abs(tan.xi)) == 0.0
    assert np.max(np.abs(tan.eta)) == 0.0


def test_tangent_linearity(cfg, small):
    st = pc.solve_state(small, 0.3, cfg)
    h = checks.random_direction(small, np.random.default_rng(0))
    one = pc.solve_tangent(small, st, h)
    two = pc.solve_tangent(small, st, 2.0 * h)
    np.testing.assert_allclose(two.xi, 2.0 * one.xi, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(two.eta, 2.0 * one.eta, rtol=1e-12, atol=1e-15)


def test_tangent_remainder_quadratic(cfg, small):
    rep = checks.tangent_remainder_check(small, cfg, seed=1)
    assert rep["pass"], rep["metrics"]
    assert 1.7 <= rep["metrics"]["slope"] <= 2.3


def test_remainder_quarters_per_halving(cfg, small):
    rep = checks.tangent_remainder_check(small, cfg, seed=2,
                                         lambdas=(0.1, 0.05, 0.025))
    r = rep["metrics"]["remainders"]
    for a, b in zip(r, r[1:]):
        assert 4.0 / 1.5 <= a / b <= 4.0 * 1.5


@pytest.mark.parametrize("march, step", [
    (lambda p, st: pc.solve_tangent(p, st, 0.1), 3),
    (lambda p, st: pc.solve_adjoint(p, st, mode="discrete"), 6),
    (lambda p, st: pc.solve_adjoint(p, st, mode="pde"), 6)],
    ids=["tangent", "discrete", "pde"])
def test_march_failure_names_its_step(cfg, small, monkeypatch, march, step):
    """A solve failing inside a tangent or adjoint march carries its step
    in 1..N, as in solve_state: each step makes two solves, the tangent
    marches forward and the adjoints backward from step N = 8."""
    st = pc.solve_state(small, 0.3, cfg)
    solve, calls = mesh.solve_shifted, []

    def sixth_fails(*args, **kwargs):
        calls.append(None)
        if len(calls) == 6:
            raise LinearSolveFailure("injected")
        return solve(*args, **kwargs)

    monkeypatch.setattr(mesh, "solve_shifted", sixth_fails)
    with pytest.raises(LinearSolveFailure) as info:
        march(small, st)
    assert (info.value.step, info.value.steps) == (step, 8)


def test_unknown_adjoint_mode_rejected(cfg, small):
    st = pc.solve_state(small, 0.3, cfg)
    with pytest.raises(ValidationError, match=r"^adjoint_mode: requires "
                       r"adjoint_mode in \{discrete, pde\}, got 'dual'$"):
        pc.solve_adjoint(small, st, mode="dual")


def test_adjoint_vanishes_when_targets_met(cfg):
    prob, _ = manufactured(u_dag=0.3)
    st = pc.solve_state(prob, 0.3, cfg)
    for mode in sensitivity.ADJOINT_MODES:
        adj = pc.solve_adjoint(prob, st, mode=mode)
        assert np.max(np.abs(adj.p)) == 0.0
        assert np.max(np.abs(adj.q)) == 0.0


def test_pde_mode_terminal_conditions(cfg):
    prob, _ = manufactured(u_dag=0.4)
    st = pc.solve_state(prob, 0.1, cfg)
    adj = pc.solve_adjoint(prob, st, mode="pde")
    N = prob.tgrid.N
    assert np.max(np.abs(adj.q[N])) == 0.0
    np.testing.assert_allclose(prob.delta * adj.p[N],
                               st.rho[N] - prob.rho_target, rtol=1e-14)


def test_discrete_mode_zero_level(cfg):
    # the forward march never reads the level-0 control
    prob, _ = manufactured(u_dag=0.4)
    st = pc.solve_state(prob, 0.1, cfg)
    adj = pc.solve_adjoint(prob, st, mode="discrete")
    assert np.max(np.abs(adj.q[0])) == 0.0
    assert np.array_equal(adj.p[0], adj.p[1])  # the level-0 padding


def test_discrete_adjoint_holds_one_pair_of_stacks(cfg):
    """The discrete adjoint returns the arrays it marched: above its
    starting level it allocates under three (N+1, cells) stacks."""
    N = 32
    prob = build_problem(dim=2, n=(32, 32), N=N, mu0=0.1)
    x, y = prob.grid.cell_centers().T
    rho0 = 0.45 + 0.1 * np.cos(np.pi * x) * np.cos(np.pi * y)
    prob = replace(prob, rho0=rho0)
    st = pc.solve_state(prob, 0.3, cfg)
    stack = (N + 1) * prob.grid.num_cells * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        pc.solve_adjoint(prob, st, mode="discrete")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < 3 * stack


def test_mode_gap_shrinks_in_tau(cfg):
    gaps = []
    for N in (16, 32, 64):
        prob, _ = manufactured(n=16, N=N, T=0.2, u_dag=0.4)
        st = pc.solve_state(prob, 0.1, cfg)
        gaps.append(sensitivity.adjoint_mode_gap(prob, st))
    assert gaps[0] / gaps[1] >= 1.2
    assert gaps[1] / gaps[2] >= 1.2


def test_duality_zero_direction(cfg, small):
    st = pc.solve_state(small, 0.2, cfg)
    tan = pc.solve_tangent(small, st, 0.0)
    adj = pc.solve_adjoint(small, st)
    lhs, rhs = sensitivity.duality_pairing(small, st, tan, adj, 0.0)
    assert lhs == 0.0 and rhs == 0.0


def test_duality_discrete_exact(cfg):
    """Transposition makes the identity hold to solver precision."""
    prob = build_problem(n=32, N=64, T=0.5, rho0=0.45, mu0=0.1)
    rep = checks.duality_gap_check(prob, cfg, seed=0, mode="discrete")
    assert rep["pass"], rep["metrics"]
    assert rep["metrics"]["rel_gap"] <= 1e-8
    # Only a zero direction adds the key, so reports keep one shape.
    assert "degenerate" not in rep["metrics"]


def test_duality_discrete_exact_2d(cfg):
    """The identity holds to the same precision with the 2D CG solves."""
    grid = pc.Grid(2, 32, 1.0)
    x, y = grid.cell_centers().T
    rho0 = 0.45 + 0.2 * np.cos(np.pi * x) * np.cos(2.0 * np.pi * y)
    prob = build_problem(dim=2, n=32, N=16, T=0.25, rho0=rho0, mu0=0.1)
    rep = checks.duality_gap_check(prob, cfg, seed=0, mode="discrete")
    assert rep["pass"], rep["metrics"]
    assert rep["metrics"]["rel_gap"] <= 1e-8


def test_duality_pde_shrinks_under_refinement(cfg):
    prob = build_problem(n=16, N=16, T=0.2)
    rep = checks.duality_gap_check(prob, cfg, seed=0, mode="pde",
                                   refinements=1)
    assert rep["pass"], rep["metrics"]
    assert all(r >= 1.5 for r in rep["metrics"]["ratios"])
