import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import phasectl as pc
from phasectl import checks, mesh, sensitivity
from phasectl.errors import LinearSolveFailure, ValidationError
from conftest import build_problem, manufactured, spoil, traj


def test_tangent_zero_direction(small):
    st = pc.solve_state(small, 0.3)
    tan = pc.solve_tangent(small, st, 0.0)
    assert np.max(np.abs(tan.xi)) == 0.0
    assert np.max(np.abs(tan.eta)) == 0.0


def test_tangent_linearity(small):
    st = pc.solve_state(small, 0.3)
    h = checks.random_direction(small, np.random.default_rng(0))
    one = pc.solve_tangent(small, st, h)
    two = pc.solve_tangent(small, st, 2.0 * h)
    np.testing.assert_allclose(two.xi, 2.0 * one.xi, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(two.eta, 2.0 * one.eta, rtol=1e-12, atol=1e-15)


def test_tangent_remainder_quadratic(small):
    rep = checks.tangent_remainder_check(small, seed=1)
    assert rep["pass"], rep["metrics"]
    assert 1.7 <= rep["metrics"]["slope"] <= 2.3


def test_remainder_quarters_per_halving(small):
    rep = checks.tangent_remainder_check(small, seed=2,
                                         lambdas=(0.1, 0.05, 0.025))
    r = rep["metrics"]["remainders"]
    for a, b in zip(r, r[1:]):
        assert 4.0 / 1.5 <= a / b <= 4.0 * 1.5


@pytest.mark.parametrize("march, step", [
    (lambda p, st: pc.solve_tangent(p, st, 0.1), 3),
    (lambda p, st: pc.solve_adjoint(p, st, mode="discrete"), 6),
    (lambda p, st: pc.solve_adjoint(p, st, mode="pde"), 6)],
    ids=["tangent", "discrete", "pde"])
def test_march_failure_names_its_step(small, monkeypatch, march, step):
    """A solve failing inside a tangent or adjoint march carries its step
    in 1..N, as in solve_state: each step makes two solves, the tangent
    marches forward and the adjoints backward from step N = 8."""
    st = pc.solve_state(small, 0.3)
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


BLOCK_MARCHES = {
    "tangent": lambda p, st: pc.solve_tangent(p, st, 0.1),
    "discrete": lambda p, st: pc.solve_adjoint(p, st, mode="discrete"),
    "pde": lambda p, st: pc.solve_adjoint(p, st, mode="pde")}


@pytest.mark.parametrize("name, step", [("tangent", 6), ("discrete", 35),
                                        ("pde", 35)])
@pytest.mark.parametrize("fail", [None, 15], ids=["alone", "then-injected"])
def test_march_residual_failure_names_its_step(monkeypatch, name, step,
                                               fail):
    """On 64 cells a block holds 32 rows, 16 steps of two solves.  Solve
    11 of 80, mid-block, is 1% off; it is named whether the block is
    checked at its end or first by an injected failure at solve 15."""
    prob = build_problem(n=64, N=40, T=0.5)
    st = pc.solve_state(prob, 0.3)
    spoil(monkeypatch, mesh, "solve_shifted", 11, fail)
    with pytest.raises(LinearSolveFailure, match="linear residual") as info:
        BLOCK_MARCHES[name](prob, st)
    assert (info.value.step, info.value.steps) == (step, 40)
    if fail:
        assert str(info.value.__context__) == "injected"


def test_unknown_adjoint_mode_rejected(small):
    st = pc.solve_state(small, 0.3)
    with pytest.raises(ValidationError, match=r"^adjoint_mode: requires "
                       r"adjoint_mode in \{discrete, pde\}, got 'dual'$"):
        pc.solve_adjoint(small, st, mode="dual")


def test_adjoint_vanishes_when_targets_met():
    prob, _ = manufactured(u_dag=0.3)
    st = pc.solve_state(prob, 0.3)
    for mode in sensitivity.ADJOINT_MODES:
        adj = pc.solve_adjoint(prob, st, mode=mode)
        assert np.max(np.abs(adj.p)) == 0.0
        assert np.max(np.abs(adj.q)) == 0.0


def test_pde_mode_terminal_conditions():
    prob, _ = manufactured(u_dag=0.4)
    st = pc.solve_state(prob, 0.1)
    adj = pc.solve_adjoint(prob, st, mode="pde")
    N = prob.tgrid.N
    assert np.max(np.abs(adj.q[N])) == 0.0
    np.testing.assert_allclose(prob.delta * adj.p[N],
                               st.rho[N] - prob.rho_target, rtol=1e-14)


def test_discrete_mode_zero_level():
    # the forward march never reads the level-0 control
    prob, _ = manufactured(u_dag=0.4)
    st = pc.solve_state(prob, 0.1)
    adj = pc.solve_adjoint(prob, st, mode="discrete")
    assert np.max(np.abs(adj.q[0])) == 0.0
    assert np.array_equal(adj.p[0], adj.p[1])  # the level-0 padding


def test_discrete_adjoint_holds_one_pair_of_stacks():
    """The discrete adjoint returns the arrays it marched: above its
    starting level it allocates under three (N+1, cells) stacks."""
    N = 32
    prob = build_problem(dim=2, n=(32, 32), N=N, mu0=0.1)
    x, y = prob.grid.cell_centers().T
    rho0 = 0.45 + 0.1 * np.cos(np.pi * x) * np.cos(np.pi * y)
    prob = replace(prob, rho0=rho0)
    st = pc.solve_state(prob, 0.3)
    stack = (N + 1) * prob.grid.num_cells * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        pc.solve_adjoint(prob, st, mode="discrete")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < 3 * stack


def peak_stacks(run):
    """Peak numpy allocation of ``run`` on a 32x32, N = 32 instance, above
    its starting level, in (N+1, cells) stacks.  ``run`` takes the
    problem, its state and a direction stack."""
    N = 32
    prob = build_problem(dim=2, n=(32, 32), N=N, mu0=0.1)
    x, y = prob.grid.cell_centers().T
    prob = replace(prob, rho0=0.45 + 0.1 * np.cos(np.pi * x)
                   * np.cos(np.pi * y))
    st = pc.solve_state(prob, 0.3)
    h = traj(prob, 0.1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run(prob, st, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / ((N + 1) * prob.grid.num_cells * 8)


@pytest.mark.parametrize("run, bound", [
    (lambda p, st, h: pc.solve_state(p, 0.3), 5.01 + 0.5),
    (lambda p, st, h: pc.solve_tangent(p, st, h), 3.53 + 0.5),
    (lambda p, st, h: pc.solve_adjoint(p, st, mode="pde"), 2.50 + 0.5)],
    ids=["forward", "tangent", "pde"])
def test_march_peak_allocation(run, bound):
    """Each march allocates at most half a stack more than it did when
    every solve was checked on its own (5.01, 3.53 and 2.50 stacks); its
    blocks of waiting rows and their check fit in that half."""
    assert peak_stacks(run) < bound


def test_mode_gap_shrinks_in_tau():
    gaps = []
    for N in (16, 32, 64):
        prob, _ = manufactured(n=16, N=N, T=0.2, u_dag=0.4)
        st = pc.solve_state(prob, 0.1)
        gaps.append(sensitivity.adjoint_mode_gap(prob, st))
    assert gaps[0] / gaps[1] >= 1.2
    assert gaps[1] / gaps[2] >= 1.2


def test_duality_zero_direction(small):
    st = pc.solve_state(small, 0.2)
    tan = pc.solve_tangent(small, st, 0.0)
    adj = pc.solve_adjoint(small, st)
    lhs, rhs = sensitivity.duality_pairing(small, st, tan, adj, 0.0)
    assert lhs == 0.0 and rhs == 0.0


def test_duality_discrete_exact():
    """Transposition makes the identity hold to solver precision."""
    prob = build_problem(n=32, N=64, T=0.5, rho0=0.45, mu0=0.1)
    rep = checks.duality_gap_check(prob, seed=0, mode="discrete")
    assert rep["pass"], rep["metrics"]
    assert rep["metrics"]["rel_gap"] <= 1e-8
    # Only a zero direction adds the key, so reports keep one shape.
    assert "degenerate" not in rep["metrics"]


def test_duality_discrete_exact_2d():
    """The identity holds to the same precision with the 2D CG solves."""
    grid = pc.Grid(2, 32, 1.0)
    x, y = grid.cell_centers().T
    rho0 = 0.45 + 0.2 * np.cos(np.pi * x) * np.cos(2.0 * np.pi * y)
    prob = build_problem(dim=2, n=32, N=16, T=0.25, rho0=rho0, mu0=0.1)
    rep = checks.duality_gap_check(prob, seed=0, mode="discrete")
    assert rep["pass"], rep["metrics"]
    assert rep["metrics"]["rel_gap"] <= 1e-8


def test_duality_pde_shrinks_under_refinement():
    prob = build_problem(n=16, N=16, T=0.2)
    rep = checks.duality_gap_check(prob, seed=0, mode="pde",
                                   refinements=1)
    assert rep["pass"], rep["metrics"]
    assert all(r >= 1.5 for r in rep["metrics"]["ratios"])
