from dataclasses import replace

import numpy as np
import pytest

import phasectl as pc
from phasectl import mesh
from phasectl.errors import LinearSolveFailure
from phasectl.forward import ProblemData, StateTrajectory
from phasectl.mesh import as_trajectory
from phasectl.sensitivity import solve_adjoint


def build_problem(n=16, N=8, T=0.1, dim=1, epsilon=0.5, delta=1.0,
                  rho0=0.45, mu0=0.1, u_max=1.0, **kw):
    """One-call problem factory for unit tests."""
    grid = pc.Grid(dim, n, 1.0 if dim == 1 else (1.0, 1.0))
    tg = pc.TimeGrid(T, N)
    return pc.ProblemData(grid=grid, tgrid=tg, epsilon=epsilon, delta=delta,
                          potential=pc.Potential(), rho0=rho0, mu0=mu0,
                          u_max=u_max, **kw)


def fallback_instance(N=3):
    """An instance whose step 3 fails from the extrapolated start and
    converges from the previous level, with its control.

    The data of test_extrapolated_start_reaches_the_same_level at n=21,
    delta=5, ratio=0.875, epsilon=1 and seed 0; past step 3 the control
    repeats its last level.
    """
    rng = np.random.default_rng(0)
    n, delta = 21, 5.0
    tau = 0.875 * 0.5 * delta
    prob = build_problem(n=n, N=N, T=N * tau, epsilon=1.0, delta=delta,
                         rho0=rng.uniform(0.2, 0.8, n),
                         mu0=rng.uniform(0.0, 1.0, n))
    u = rng.uniform(0.0, 1.0, (4, n))
    return prob, np.vstack([u, np.repeat(u[-1:], N - 3, axis=0)])


def manufactured(n=16, N=16, T=0.05, u_dag=0.5, beta1=1.0, beta2=1e-4,
                 **kw):
    """Problem whose targets come from forward-solving a known control."""
    base = build_problem(n=n, N=N, T=T, rho0=0.5, mu0=0.0, **kw)
    ref = pc.solve_state(base, u_dag)
    return replace(base, beta1=beta1, beta2=beta2,
                   rho_target=ref.rho[base.tgrid.N], mu_target=ref.mu), ref


def adjoint_mode_gap(problem: ProblemData, state: StateTrajectory) -> float:
    """Largest per-level cell-norm gap between the two adjoint modes.

    Compared over the multiplier levels 1..N: level 0 of the discrete
    potential adjoint is a structural zero because the first control
    level never enters the dynamics, while the backward pde march
    integrates to t=0.  Over the compared levels the gap shrinks first
    order in tau on a fixed spatial grid.
    """
    qd = solve_adjoint(problem, state, mode="discrete").q
    qp = solve_adjoint(problem, state, mode="pde").q
    return float(np.max(mesh.norm_h(problem.grid, qd[1:] - qp[1:])))


def off_by(factor, solve):
    """``solve`` (mesh.dptsv or mesh._pcg) with its solution scaled by
    ``factor``."""
    def wrong(*args, **kwargs):
        out = solve(*args, **kwargs)
        if isinstance(out, tuple):
            d, e, x, info = out
            return d, e, factor * x, info
        return factor * out
    return wrong


def spoil(monkeypatch, owner, name, wrong, fail=None):
    """Make call ``wrong`` of ``owner.name`` solve 1% off through a
    patched dptsv, and call ``fail``, if given, raise LinearSolveFailure
    ("injected") instead of running."""
    func, calls = getattr(owner, name), []
    off_by_one_percent = off_by(1.01, mesh.dptsv)

    def spoiled(*args, **kwargs):
        calls.append(None)
        if len(calls) == fail:
            raise LinearSolveFailure("injected")
        if len(calls) != wrong:
            return func(*args, **kwargs)
        with monkeypatch.context() as patch:
            patch.setattr(mesh, "dptsv", off_by_one_percent)
            return func(*args, **kwargs)

    monkeypatch.setattr(owner, name, spoiled)


def traj(problem, value):
    return as_trajectory(problem.tgrid, problem.grid, value)


@pytest.fixture
def small():
    return build_problem()

@pytest.fixture
def small2d():
    return build_problem(dim=2, n=(6, 5), N=6)
