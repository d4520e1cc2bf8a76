import gc
import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

import phasectl as pc
from phasectl import checks, mesh, sensitivity
from phasectl.errors import LinearSolveFailure, ValidationError
from phasectl.forward import mu_carry, mu_diagonal, newton_shift
from conftest import (adjoint_mode_gap, build_problem, manufactured, spoil,
                      traj)


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


def block_instance(grid):
    """A 1D or 2D instance with N = 37 steps, its state and its blocks'
    rows: 16 and 8 steps at 64 cells, 34 and 17 at 6x5, none of which
    divides N."""
    prob = build_problem(N=37, T=0.5, **{"1d": dict(n=64),
                                        "2d": dict(dim=2, n=(6, 5))}[grid])
    x = prob.grid.cell_centers()[:, 0]
    prob = replace(prob, rho0=0.45 + 0.1 * np.cos(np.pi * x), beta1=0.7,
                   mu_target=0.05 + 0.01 * np.sin(x))
    rows = [mesh.block_rows(prob.grid, share) for share in (2, 4)]
    assert all(1 < r < 37 and 37 % r for r in rows)
    return prob, pc.solve_state(prob, 0.3)


def step_shifts(prob, st):
    """Per step n, the per-step Newton shift at rho[n+1] and potential
    diagonal; per level n < N, the pde adjoint's diagonals C + 1 and S."""
    rho = st.rho
    S = [newton_shift(prob, r) for r in rho]
    D = [mu_diagonal(prob, rho[n], rho[n + 1]) for n in range(prob.tgrid.N)]
    C = [mu_carry(prob, r) for r in rho]
    return S, D, C


def reference_marches(prob, st, h):
    """The tangent, discrete adjoint and pde adjoint of ``st`` marched
    step by step, every coefficient formed per step from its formula:
    S, D, a, d, C and b of each step, and the pde terms of each level."""
    p, grid, N, tau = prob, prob.grid, prob.tgrid.N, prob.tgrid.tau
    rho, mu, d, c = st.rho, st.mu, prob.delta / tau, prob.tgrid.trap_weights()
    S, D, C = step_shifts(prob, st)
    a = [(2.0 * mu[n] - 3.0 * mu[n + 1]) / tau for n in range(N)]
    b = [mu[n + 1] / tau for n in range(N)]
    solve = partial(mesh.solve_shifted, grid)
    xi, eta = np.zeros_like(h), np.zeros_like(h)
    for n in range(N):
        xi[n + 1] = solve(S[n + 1], d * xi[n] + eta[n])
        eta[n + 1] = solve(D[n], h[n + 1] + a[n] * xi[n + 1] + b[n] * xi[n]
                           + C[n + 1] * eta[n])
    x, y = np.zeros_like(mu), np.zeros_like(mu)
    for k in range(N, 0, -1):
        rhs_y = p.beta1 * tau * c[k] * (mu[k] - p.mu_target[k])
        if k == N:
            rhs_x = rho[N] - p.rho_target
        else:
            rhs_y = rhs_y + x[k + 1] + C[k + 1] * y[k + 1]
            rhs_x = d * x[k + 1] + b[k] * y[k + 1]
        y[k] = solve(D[k - 1], rhs_y)
        x[k] = solve(S[k], a[k - 1] * y[k] + rhs_x)
    y[1:] /= tau * c[1:, None]
    x[1:] /= tau
    x[0] = x[1]
    q, pp = np.zeros_like(mu), np.zeros_like(mu)
    pp[N] = (rho[N] - p.rho_target) / p.delta
    for n in range(N - 1, -1, -1):
        q[n] = solve(C[n] + 1.0, C[n] * q[n + 1]
                     + (1.0 + (rho[n + 1] - rho[n]) / tau) * q[n + 1]
                     + pp[n + 1] + p.beta1 * (mu[n] - p.mu_target[n]))
        pp[n] = solve(S[n], (p.delta / tau) * pp[n + 1]
                      + mu[n] * (q[n + 1] - q[n]) / tau
                      - (mu[n + 1] - mu[n]) / tau * q[n])
    return xi, eta, x, y, pp, q


def same_bits(got, want):
    return all(np.asarray(g).tobytes() == np.asarray(w).tobytes()
               for g, w in zip(got, want, strict=True))


@pytest.mark.parametrize("grid", ["1d", "2d"])
def test_step_blocks_match_the_per_step_formulas(grid):
    """Every step's coefficients, formed a block at a time over the
    marches' own block ranges, equal the per-step formulas bit for bit,
    in the tangent's forward order and in the discrete adjoint's backward
    order."""
    prob, st = block_instance(grid)
    tau, mu = prob.tgrid.tau, st.mu
    S, D, C = step_shifts(prob, st)
    rows = mesh.block_rows(prob.grid, 2)
    for backward in (False, True):
        seen = []
        for lo, hi in mesh.blocks(37, rows, backward=backward):
            block = sensitivity._step_terms(prob, st, lo, hi)
            for n in range(lo, hi):
                want = (S[n + 1], D[n],
                        (2.0 * mu[n] - 3.0 * mu[n + 1]) / tau,
                        C[n + 1], mu[n + 1] / tau)
                assert same_bits([t[n - lo] for t in block], want), n
                seen.append(n)
        assert sorted(seen) == list(range(37))


@pytest.mark.parametrize("grid", ["1d", "2d"])
def test_pde_terms_match_the_per_level_formulas(grid):
    """The pde adjoint's state-only terms, formed backward a block of
    levels at a time over the march's own block ranges, equal the
    per-level formulas bit for bit at every level from N - 1 down to 0."""
    prob, st = block_instance(grid)
    tau, rho, mu = prob.tgrid.tau, st.rho, st.mu
    S, _, C = step_shifts(prob, st)
    seen = []
    for lo, hi in mesh.blocks(37, mesh.block_rows(prob.grid, 4),
                              backward=True):
        terms = sensitivity._pde_terms(prob, st, lo, hi)
        for n in range(hi - 1, lo - 1, -1):
            want = (C[n], 1.0 + (rho[n + 1] - rho[n]) / tau,
                    prob.beta1 * (mu[n] - prob.mu_target[n]), C[n] + 1.0,
                    (mu[n + 1] - mu[n]) / tau, S[n])
            assert same_bits([t[n - lo] for t in terms], want), n
            seen.append(n)
    assert seen == list(range(36, -1, -1))


@pytest.mark.parametrize("grid", ["1d", "2d"])
def test_marches_match_the_per_step_reference(grid):
    """The tangent and both adjoints, whose coefficients are formed a
    block of steps at a time, equal the per-step reference march bit for
    bit at every level."""
    prob, st = block_instance(grid)
    h = checks.random_direction(prob, np.random.default_rng(0))
    tan = pc.solve_tangent(prob, st, h)
    dis = pc.solve_adjoint(prob, st, mode="discrete")
    pde = pc.solve_adjoint(prob, st, mode="pde")
    got = (tan.xi, tan.eta, dis.p, dis.q, pde.p, pde.q)
    assert same_bits(got, reference_marches(prob, st, h))


@pytest.mark.parametrize("grid", ["1d", "2d"])
def test_marches_solve_with_the_per_step_diagonals(monkeypatch, grid):
    """Each march hands its solves the per-step diagonals bit for bit: the
    tangent forward, the discrete adjoint backward, and the pde adjoint
    backward down to level 0."""
    prob, st = block_instance(grid)
    S, D, C = step_shifts(prob, st)
    shifts, solve = [], mesh.CheckedSolves.solve

    def recorded(self, shift, rhs):
        shifts.append(shift.copy())
        return solve(self, shift, rhs)

    monkeypatch.setattr(mesh.CheckedSolves, "solve", recorded)
    pc.solve_tangent(prob, st, 0.1)
    assert same_bits(shifts, [v for n in range(37) for v in (S[n + 1], D[n])])
    shifts.clear()
    pc.solve_adjoint(prob, st, mode="discrete")
    assert same_bits(shifts, [v for n in range(36, -1, -1)
                              for v in (D[n], S[n + 1])])
    shifts.clear()
    pc.solve_adjoint(prob, st, mode="pde")
    assert same_bits(shifts, [v for n in range(36, -1, -1)
                              for v in (C[n] + 1.0, S[n])])


def test_marches_leave_no_reference_cycles():
    """No march leaves a reference cycle behind, so a march's blocks and
    the state they read are freed on return, not at a later collection."""
    prob, st = block_instance("1d")
    gc.collect()
    gc.disable()
    try:
        for march in BLOCK_MARCHES.values():
            march(prob, st)
        pc.solve_state(prob, 0.3)
        assert gc.collect() == 0
    finally:
        gc.enable()


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
    (lambda p, st, h: pc.solve_state(p, 0.3), 2.80 + 0.50),
    (lambda p, st, h: pc.solve_tangent(p, st, h), 2.77 + 0.52),
    (lambda p, st, h: pc.solve_adjoint(p, st, mode="pde"), 2.84 + 0.16)],
    ids=["forward", "tangent", "pde"])
def test_march_peak_allocation(run, bound):
    """Each march stays under a fixed bound, its measured peak plus a
    margin: 2.80 stacks forward, where the constant control is held as
    one field and the diagnostics take their minima a block of levels at
    a time, plus half a stack; 2.77 for the tangent, which reads the
    direction without a copy, plus 0.52; and 2.84 for the pde adjoint,
    plus 0.16 only, so a further allocation of a sixth of a stack in
    that march fails here.  The blocks of waiting rows and their check
    are inside each measured peak."""
    assert peak_stacks(run) < bound


def test_mode_gap_shrinks_in_tau():
    gaps = []
    for N in (16, 32, 64):
        prob, _ = manufactured(n=16, N=N, T=0.2, u_dag=0.4)
        st = pc.solve_state(prob, 0.1)
        gaps.append(adjoint_mode_gap(prob, st))
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


def test_cg_iterations_of_smooth_2d_marches(monkeypatch):
    """A guard on the cost of the 2D solves that the host's speed does
    not move: the CG iterations of the forward, tangent and discrete
    adjoint marches on 32x32 cells, 32 steps, a smooth rho0 and the
    seed-1 check instance.  Each variable-shift solve makes one inverse
    transform at its start and one per iteration, and a constant shift
    makes one.  Measured: 237 (54 + 159 + 24) with the coarse block of
    _CG_COARSE_MODES = 6 modes per axis, 675 (257 + 204 + 214) with the
    mean-shift preconditioner alone."""
    prob = build_problem(dim=2, n=32, N=32, T=0.5)
    x, y = prob.grid.cell_centers().T
    prob = replace(prob, rho0=0.45 + 0.1 * np.cos(np.pi * x)
                   * np.cos(np.pi * y))
    u, h = checks.check_instance(prob, 1)
    calls = {"_pcg": 0, "_idct": 0}

    def counted(name):
        func = getattr(mesh, name)

        def call(*args):
            calls[name] += 1
            return func(*args)
        monkeypatch.setattr(mesh, name, call)

    counted("_pcg")
    counted("_idct")
    st = pc.solve_state(prob, u)
    pc.solve_tangent(prob, st, h)
    pc.solve_adjoint(prob, st, mode="discrete")
    assert calls["_idct"] - calls["_pcg"] <= 237


def test_duality_pde_shrinks_under_refinement():
    prob = build_problem(n=16, N=16, T=0.2)
    rep = checks.duality_gap_check(prob, seed=0, mode="pde",
                                   refinements=1)
    assert rep["pass"], rep["metrics"]
    assert all(r >= 1.5 for r in rep["metrics"]["ratios"])
